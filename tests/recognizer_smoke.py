"""Parse policies through both policy parsers and compare the results.

Standard library only, so it runs on an interpreter without pytest:

    python tests/recognizer_smoke.py

Importing ``labelflow.policy`` compiles the block recognizer's patterns.
The script then parses both ``.lucon`` fixtures and one generated
``check_large_policy`` document with the block recognizer and with the
token parser, and fails unless each gives the same AST without falling
back to the token parser.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from flowbench.gen import check_large_inputs  # noqa: E402
from labelflow import policy  # noqa: E402


def main() -> int:
    fixtures = ROOT / "tests" / "fixtures"
    documents = {
        name: (fixtures / name).read_text(encoding="utf-8")
        for name in ("dont_publish_raw.lucon", "measurement_chain.lucon")
    }
    _, model = check_large_inputs(1).cases[0]
    documents["check_large_policy seed 1"] = model.text()
    failed = 0
    for name, text in documents.items():
        recognized = policy._BlockRecognizer().parse(text)
        expected = policy._PolicyParser(text).parse()
        if recognized is None:
            print(f"FAIL {name}: outside the recognizer's subset")
        elif recognized != expected:
            print(f"FAIL {name}: the two parsers disagree")
        else:
            print(
                f"ok   {name}: {len(expected.services)} services, "
                f"{len(expected.rules)} rules"
            )
            continue
        failed += 1
    agreed = len(documents) - failed
    print(f"Python {sys.version.split()[0]}: {agreed} of {len(documents)} agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
