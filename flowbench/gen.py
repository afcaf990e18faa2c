"""Seeded input generators for the three benchmark workloads.

Everything here is plain data: policy and route *models* that render to
``.lucon`` / ``.route`` text, plus message props. The program under test
only ever sees the rendered text and the props; the reference model in
``reference.py`` reads the models directly.

Labels are ground terms of two shapes, kept as tuples: ``("raw",)`` for the
atom ``raw`` and ``("w", "3")`` for ``w(3)``. A pattern may put ``None`` in
the argument slot, rendered as the variable ``X`` (``w(X)``).

Shapes are stratified rather than drawn freely: the number of rules, the
number of choices per route, the share of inline service targets and the
share of gated routes are fixed per workload, and only the concrete
services, labels and conditions come from the seed. That keeps the cost of
a run nearly the same from seed to seed, so medians over different seeds
measure the program and not the draw.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Models and their text form.
# ---------------------------------------------------------------------------


def label_text(label: tuple) -> str:
    if len(label) == 1:
        return label[0]
    arg = "X" if label[1] is None else label[1]
    return f"{label[0]}({arg})"


@dataclass(frozen=True)
class Svc:
    id: str | None  # None: declared inline as a rule target
    endpoint: str  # regular expression over URLs
    url: str  # a concrete URL the endpoint matches
    creates: tuple = ()
    removes: tuple = ()  # patterns
    properties: tuple = ()


@dataclass(frozen=True)
class Rule:
    name: str
    target: object  # service id (str) or an inline Svc
    triggers: tuple  # patterns
    effect: str
    obligations: tuple = ()  # (functor, otherwise)


# Obligation functors the benchmark registers, and whether each succeeds.
# ``archive`` is deliberately left unregistered, which the runtime treats as
# a failing obligation.
OBLIGATION_OK = {"log": True, "notify": True, "escalate": False, "archive": False}


def obligation_text(functor: str) -> str:
    if functor == "log":
        return 'log("flow noted", message)'
    return f"{functor}(message)"


def _service_block(s: Svc, indent: str) -> list[str]:
    lines = [f"{indent}service {{"]
    if s.id is not None:
        lines.append(f"{indent}  id {s.id}")
    lines.append(f'{indent}  endpoint "{s.endpoint}"')
    for kw, items in (
        ("properties", s.properties),
        ("creates_label", [label_text(l) for l in s.creates]),
        ("removes_label", [label_text(l) for l in s.removes]),
    ):
        if items:
            lines.append(f"{indent}  {kw} " + ", ".join(items))
    lines.append(f"{indent}}}")
    return lines


@dataclass
class PolicyModel:
    services: list  # top-level Svc, declaration order
    rules: list  # Rule, declaration order

    def text(self) -> str:
        lines = ["// generated policy"]
        for s in self.services:
            lines.append("")
            lines.extend(_service_block(s, ""))
        for r in self.rules:
            lines.append("")
            lines.append("flow_rule {")
            lines.append(f"  id {r.name}")
            if isinstance(r.target, Svc):
                block = _service_block(r.target, "  ")
                lines.append("  when " + block[0].strip())
                lines.extend(block[1:-1])
                lines.append("  } receives " + ", ".join(map(label_text, r.triggers)))
            else:
                lines.append(
                    f"  when {r.target} receives "
                    + ", ".join(map(label_text, r.triggers))
                )
            lines.append(f"  decide {r.effect}")
            for functor, otherwise in r.obligations:
                lines.append(
                    f"    require {obligation_text(functor)} otherwise {otherwise}"
                )
            lines.append("}")
        return "\n".join(lines) + "\n"

    def service(self, sid: str) -> Svc | None:
        for s in self.services:
            if s.id == sid:
                return s
        return None


# Route statements: ("from", atom) ("to", atom) ("bean", atom)
# ("choice", cond, then, else) ("split",) ("aggregate",).
# Conditions: ("prop_eq", key, atom) ("lt", key, int) ("has_prop", key, prop).


def condition_text(cond: tuple) -> str:
    kind = cond[0]
    if kind == "prop_eq":
        return f"msg_prop({cond[1]}, {cond[2]})"
    if kind == "lt":
        return f"lt(msg({cond[1]}), {cond[2]})"
    if kind == "has_prop":
        return f"has_property(msg({cond[1]}), {cond[2]})"
    raise ValueError(cond)


@dataclass
class RouteModel:
    name: str
    endpoints: dict  # service atom -> URL
    stmts: dict  # number -> statement tuple, declaration order
    succ: dict  # number -> successor numbers
    joins: dict = field(default_factory=dict)  # split -> aggregate

    @property
    def entry(self) -> int:
        return next(iter(self.stmts))

    def text(self) -> str:
        lines = [f"route {self.name} {{"]
        if self.endpoints:
            lines.append("  services {")
            for atom, url in self.endpoints.items():
                lines.append(f'    {atom} = "{url}"')
            lines.append("  }")
        for n, st in self.stmts.items():
            kind = st[0]
            if kind == "choice":
                body = (
                    f"when {condition_text(st[1])} then goto {st[2]} "
                    f"otherwise goto {st[3]}"
                )
            elif kind in ("from", "to", "bean"):
                body = f"{kind}({st[1]})"
            elif kind == "split":
                body = "split parts"
            else:
                body = "aggregate concat"
            arrow = ""
            if kind != "choice":
                succ = self.succ[n]
                arrow = " -> " + ", ".join(map(str, succ)) if succ else " -> end"
            lines.append(f"  {n}: {body}{arrow}")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def atoms(self) -> list[str]:
        out = []
        for st in self.stmts.values():
            if st[0] in ("from", "to", "bean") and st[1] not in out:
                out.append(st[1])
        return out


class _RouteBuilder:
    """Appends numbered statements; blocks are wired by explicit successors.

    ``pending`` holds the open edges that lead to the next block: a statement
    number (its successor) or ``("else", c)`` (the else target of choice c).
    """

    def __init__(self, name: str):
        self.name = name
        self.stmts: dict = {}
        self.succ: dict = {}
        self.joins: dict = {}
        self.pending: list = []

    def _new(self, st: tuple | None) -> int:
        n = len(self.stmts) + 1
        self.stmts[n] = st
        return n

    def _link(self, target: int) -> None:
        for p in self.pending:
            if isinstance(p, int):
                self.succ[p] = (target,)
            else:
                c = p[1]
                _, cond, then = self.stmts[c][:3]
                self.stmts[c] = ("choice", cond, then, target)
        self.pending = []

    def plain(self, st: tuple) -> None:
        n = self._new(st)
        self._link(n)
        self.pending = [n]

    def choice(self, cond: tuple, then_stmt: tuple, else_stmt: tuple | None) -> None:
        """``cond`` picks ``then_stmt``; otherwise ``else_stmt`` or straight on."""
        c = self._new(None)
        self._link(c)
        t = self._new(then_stmt)
        if else_stmt is None:
            self.stmts[c] = ("choice", cond, t, None)
            self.pending = [t, ("else", c)]
        else:
            e = self._new(else_stmt)
            self.stmts[c] = ("choice", cond, t, e)
            self.pending = [t, e]

    def split(self, branches: list) -> None:
        """Each branch is one statement, or ``("cond", cond, stmt)``: a choice
        that runs ``stmt`` or skips straight to the join."""
        s = self._new(("split",))
        self._link(s)
        heads, tails, choices = [], [], []
        for br in branches:
            if br[0] == "cond":
                c = self._new(None)
                t = self._new(br[2])
                choices.append((c, br[1], t))
                heads.append(c)
                tails.append(t)
            else:
                n = self._new(br)
                heads.append(n)
                tails.append(n)
        j = self._new(("aggregate",))
        for c, cond, t in choices:
            self.stmts[c] = ("choice", cond, t, j)
        for t in tails:
            self.succ[t] = (j,)
        self.succ[s] = tuple(heads)
        self.joins[s] = j
        self.pending = [j]

    def finish(self, endpoints: dict) -> RouteModel:
        if not all(isinstance(p, int) for p in self.pending):
            raise ValueError("a route must end with a plain statement")
        for n in self.pending:
            self.succ[n] = ()
        self.pending = []
        for n, st in self.stmts.items():
            if st[0] == "choice":
                self.succ[n] = (st[2], st[3])
        return RouteModel(self.name, endpoints, self.stmts, self.succ, self.joins)


# ---------------------------------------------------------------------------
# Shared pieces.
# ---------------------------------------------------------------------------

LIVE_TRIGGERS = (("raw",), ("pii",), ("w", None), ("geo",), ("cls", None), ("anon",))
DEAD_LABELS = tuple((f"d{j}",) for j in range(60)) + (("dz", None),)
EFFECTS = ("allow", "drop", "error")


def _inline_id(endpoint: str) -> str:
    # The id labelflow.policy.generated_service_id derives for an inline
    # service that has only an endpoint; drawing again on a clash keeps every
    # generated document valid.
    basis = "|".join([endpoint, "", "", "", ""])
    digest = hashlib.sha1(basis.encode()).hexdigest()
    return f"service{int(digest[:10], 16) % 10**8:08d}"


class _Tokens:
    """Distinct random hex tokens (endpoint alternatives, document tags)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()

    def __call__(self) -> str:
        while True:
            tok = f"{self.rng.getrandbits(32):08x}"
            if tok not in self.seen:
                self.seen.add(tok)
                return tok


def _https_service(sid: str, domain: str, **labels) -> Svc:
    return Svc(
        sid,
        f"https://{sid}[.]{domain}[.]example/(in|v[0-9])/.*",
        f"https://{sid}.{domain}.example/in/m",
        **labels,
    )


def _inline_target(svc: Svc, domain: str, tokens: _Tokens, ids: set) -> Svc:
    """An inline service whose pattern matches ``svc``'s URL and is unique."""
    while True:
        endpoint = f"https://{svc.id}[.]{domain}[.]example/(in|t{tokens()})/.*"
        iid = _inline_id(endpoint)
        if iid not in ids:
            ids.add(iid)
            return Svc(None, endpoint, svc.url)


def _inert_triggers(rng: random.Random) -> tuple:
    """Triggers that can never all hold: at least one label nothing creates."""
    trig = [rng.choice(DEAD_LABELS)]
    if rng.random() < 0.5:
        trig.append(rng.choice(LIVE_TRIGGERS))
    rng.shuffle(trig)
    return tuple(trig)


def _name_rules(rules: list) -> list:
    width = len(str(len(rules) - 1))
    return [
        Rule(f"r{i:0{width}d}", r.target, r.triggers, r.effect, r.obligations)
        for i, r in enumerate(rules)
    ]


def _endpoints(rng: random.Random, atoms, services: dict, share: float) -> dict:
    """URLs for a fixed share of the route's atoms; sources always get one.

    A service named by URL costs a decision two pattern tests per rule
    instead of one, so the number of such services is fixed, not drawn.
    """
    sources = [a for a in atoms if services[a].url.startswith("sensor://")]
    others = [a for a in atoms if a not in sources]
    chosen = set(sources) | set(rng.sample(others, round(share * len(others))))
    return {a: services[a].url for a in atoms if a in chosen}


# ---------------------------------------------------------------------------
# Workload: enforce.
# ---------------------------------------------------------------------------

ENFORCE_SERVICES = 40
ENFORCE_SOURCES = 4
ENFORCE_GATES = 8  # the last services; each guards one gated route
ENFORCE_RULES = 300
ENFORCE_LIVE_RULES = 30
ENFORCE_ROUTES = 20
ENFORCE_MESSAGES = 1000


@dataclass
class EnforceInputs:
    policy: PolicyModel
    routes: list  # RouteModel
    messages: list  # (route index, props); props values are str or int


def _enforce_condition(rng: random.Random) -> tuple:
    kind = rng.choice(("prop_eq", "lt", "has_prop"))
    if kind == "prop_eq":
        return ("prop_eq", "tier", rng.choice(("gold", "silver")))
    if kind == "lt":
        return ("lt", "level", 5)
    return ("has_prop", "dest", "pub")


def enforce_inputs(seed: int, scale: float = 1.0) -> EnforceInputs:
    """~300 rules over 40 services, 20 routes and a seeded message batch.

    Eight of the routes pass a gate service inside the then-branch of their
    first choice, and a planted rule drops or errors anything of origin
    ``origin(X)`` there (directly, or through a failing obligation). As each
    choice goes either way about half the time, about one message in five
    ends dropped or errored. A message's cost is mostly its condition
    evaluations, so each route's shape (blocks, their order, else-branches,
    split widths and choices inside splits) is fixed by its slot, and the
    seed picks services, conditions, rules and props.
    """
    rng = random.Random(f"enforce:{seed}")
    n_rules = max(ENFORCE_LIVE_RULES + ENFORCE_GATES, int(ENFORCE_RULES * scale))
    n_messages = max(ENFORCE_ROUTES, int(ENFORCE_MESSAGES * scale))
    creatable = [("geo",), ("anon",), ("hot",), ("cls", "secret"), ("w", "9")]
    removable = [("w", None), ("raw",), ("pii",), ("cls", None)]

    services = []
    for i in range(ENFORCE_SOURCES):
        sid = f"s{i:02d}"
        creates = [("raw",), ("w", str(i + 1)), ("origin", f"o{i}")]
        if i % 2 == 0:
            creates.append(("pii",))
        services.append(
            Svc(sid, f"sensor://{sid}/.+", f"sensor://{sid}/dev", tuple(creates))
        )
    middle = list(range(ENFORCE_SOURCES, ENFORCE_SERVICES))
    pub = set(rng.sample(middle, len(middle) // 2))
    for i in middle:
        creates = (rng.choice(creatable),) if rng.random() < 0.3 else ()
        removes = (rng.choice(removable),) if rng.random() < 0.25 else ()
        props = tuple(p for p, on in (("pub", i in pub), ("eu", rng.random() < 0.5)) if on)
        services.append(
            _https_service(
                f"s{i:02d}", "svc", creates=creates, removes=removes, properties=props
            )
        )
    by_id = {s.id: s for s in services}
    gates = [s.id for s in services[-ENFORCE_GATES:]]
    plain_pool = [s.id for s in services[ENFORCE_SOURCES:-ENFORCE_GATES]]

    def stmt():
        return ("bean" if rng.random() < 0.2 else "to", rng.choice(plain_pool))

    routes = []
    gated = [r for r in range(ENFORCE_ROUTES) if r % 5 in (0, 2)]
    for r in range(ENFORCE_ROUTES):
        b = _RouteBuilder(f"route{r:02d}")
        b.plain(("from", f"s{r % ENFORCE_SOURCES:02d}"))
        counts = {"choice": 1 + r % 4, "split": r % 3, "plain": 2 + r % 3}
        blocks = [
            (kind, n)
            for n in range(max(counts.values()))
            for kind in ("plain", "choice", "split")
            if n < counts[kind]
        ]
        gate = gates[gated.index(r)] if r in gated else None
        for kind, n in blocks + [("plain", -1)]:
            if kind == "plain":
                b.plain(stmt())
            elif kind == "choice":
                if gate:
                    # The gate's own prop keeps later choices independent of
                    # which messages the gate let through.
                    cond, then, gate = ("lt", "lane", 5), ("to", gate), None
                else:
                    cond, then = _enforce_condition(rng), stmt()
                b.choice(cond, then, stmt() if n % 2 else None)
            else:
                branches = [stmt() for _ in range(3 - n)]
                if n == 0:
                    branches[0] = ("cond", _enforce_condition(rng), branches[0])
                b.split(branches)
        model = b.finish({})
        model.endpoints = _endpoints(rng, model.atoms(), by_id, 0.7)
        routes.append(model)

    route_services = sorted({a for m in routes for a in m.atoms()} - set(gates))
    route_services = [a for a in route_services if a in plain_pool]
    tokens, ids = _Tokens(rng), set()
    rules = []
    gate_specs = [
        ("drop", ()),
        ("error", ()),
        ("allow", (("escalate", "drop"),)),
        ("drop", ()),
        ("allow", (("archive", "error"),)),
        ("error", ()),
        ("allow", (("escalate", "error"),)),
        ("drop", (("log", "error"),)),
    ]
    for g, (effect, obligations) in zip(gates, gate_specs):
        rules.append(Rule("", g, (("origin", None),), effect, obligations))
    for _ in range(ENFORCE_LIVE_RULES):
        svc = by_id[rng.choice(route_services)]
        target = (
            _inline_target(svc, "svc", tokens, ids) if rng.random() < 0.2 else svc.id
        )
        triggers = tuple(rng.sample(LIVE_TRIGGERS, rng.choice((1, 1, 2))))
        obligations = tuple(
            (rng.choice(("log", "notify")), rng.choice(("drop", "error")))
            for _ in range(rng.choice((0, 1, 1, 2)))
        )
        rules.append(Rule("", target, triggers, "allow", obligations))
    while len(rules) < n_rules:
        svc = rng.choice(services)
        target = (
            _inline_target(svc, "svc", tokens, ids)
            if rng.random() < 0.15 and svc.id not in gates and svc.url.startswith("https")
            else svc.id
        )
        obligations = (
            ((rng.choice(("log", "escalate")), rng.choice(EFFECTS)),)
            if rng.random() < 0.2
            else ()
        )
        rules.append(Rule("", target, _inert_triggers(rng), rng.choice(EFFECTS), obligations))
    rng.shuffle(rules)
    policy = PolicyModel(services, _name_rules(rules))

    pub_ids = sorted(f"s{i:02d}" for i in pub)
    other_ids = sorted(f"s{i:02d}" for i in middle if i not in pub)
    messages = []
    for i in range(n_messages):
        props = {
            "tier": rng.choice(("gold", "silver")),
            "level": rng.randint(0, 9),
            "lane": rng.randint(0, 9),
            "dest": rng.choice(pub_ids if rng.random() < 0.5 else other_ids),
        }
        messages.append((i % ENFORCE_ROUTES, props))
    return EnforceInputs(policy, routes, messages)


# ---------------------------------------------------------------------------
# Workload: check_deep_routes.
# ---------------------------------------------------------------------------

DEEP_RULES = 30
DEEP_LIVE_RULES = 8
# Every slot runs against each of these policies. Which neutral services
# the live rules hit moves a route's cost, so one policy per seed moves
# the median op by up to 10% between seeds; several average that out.
DEEP_POLICIES = 2
# (sequential choices, splits) per route. Four alike routes sit in the
# middle, so the median op falls inside one class of equal cost and not
# on the boundary between two classes of different cost.
DEEP_SLOTS = (
    (6, 0), (6, 1), (7, 1), (7, 2), (8, 0), (8, 2), (9, 1),
    (10, 1), (10, 1), (10, 1), (10, 1),
    (11, 0), (11, 2), (12, 0), (12, 1), (13, 2), (14, 2), (14, 2),
)


@dataclass
class CheckInputs:
    cases: list  # (RouteModel, PolicyModel); one CLI invocation each


def _deep_policy(rng: random.Random, n_rules: int) -> PolicyModel:
    services = [
        Svc("s00", "sensor://s00/.+", "sensor://s00/dev", (("raw",), ("pii",))),
        Svc("s01", "sensor://s01/.+", "sensor://s01/dev", (("raw",), ("w", "1"))),
        _https_service("s02", "deep", creates=(("geo",),)),
        _https_service("s03", "deep", removes=(("raw",),)),
        _https_service("s04", "deep", creates=(("anon",),)),
        _https_service("s05", "deep", removes=(("pii",), ("w", None))),
    ]
    services += [_https_service(f"s{i:02d}", "deep") for i in range(6, 12)]
    tokens, ids = _Tokens(rng), set()
    rules = []
    for _ in range(DEEP_LIVE_RULES):
        svc = services[rng.randint(6, 11)]
        target = (
            _inline_target(svc, "deep", tokens, ids) if rng.random() < 0.25 else svc.id
        )
        triggers = tuple(rng.sample(LIVE_TRIGGERS, rng.choice((1, 2))))
        rules.append(Rule("", target, triggers, rng.choice(EFFECTS), ()))
    while len(rules) < n_rules:
        svc = rng.choice(services)
        rules.append(Rule("", svc.id, _inert_triggers(rng), rng.choice(EFFECTS), ()))
    rng.shuffle(rules)
    return PolicyModel(services, _name_rules(rules))


def check_deep_inputs(seed: int, scale: float = 1.0) -> CheckInputs:
    """Routes of 6-14 sequential choices and 0-2 splits over 30-rule policies.

    Every other choice guards a label-neutral service, so the paths double
    while the states stay few; the others guard a service that adds or
    strips a label, so the distinct label sets grow too. Verification cost
    grows steeply with where those label changes sit, so the shape of each
    route is fixed by its slot (choice count, splits, source, positions of
    the label changes) and the seed picks the policies, the neutral
    services, the URLs and the cycle order.
    """
    rng = random.Random(f"check_deep_routes:{seed}")
    policies = [_deep_policy(rng, DEEP_RULES) for _ in range(DEEP_POLICIES)]
    changing = ["s02", "s03", "s04", "s05"]
    neutral = [f"s{i:02d}" for i in range(6, 12)]
    cond = ("prop_eq", "tier", "gold")

    def neutral_to():
        return ("to", rng.choice(neutral))

    cases = []
    for p, (k, n_splits) in itertools.product(policies, DEEP_SLOTS):
        k = max(1, round(k * scale))
        b = _RouteBuilder(f"deep{len(cases):02d}")
        b.plain(("from", ("s00", "s01")[k % 2]))
        # Alike slots start with the same label change, so that the routes
        # of one class cost alike and p50 and p95 fall inside a class.
        b.plain(("to", changing[(k + n_splits) % 4]))
        split_after = {k * (s + 1) // (n_splits + 1) for s in range(n_splits)}
        for c in range(k):
            then = ("to", changing[c // 2 % 4]) if c % 2 == 0 else neutral_to()
            b.choice(cond, then, neutral_to() if c % 5 == 4 else None)
            if c + 1 in split_after:
                branches = [("to", changing[(c + 1) % 4]), neutral_to()]
                b.split(branches + [neutral_to()] * (len(split_after) - 1))
        b.plain(neutral_to())
        model = b.finish({})
        by_id = {s.id: s for s in p.services}
        model.endpoints = _endpoints(rng, model.atoms(), by_id, 0.7)
        cases.append((model, p))
    rng.shuffle(cases)
    return CheckInputs(cases)


# ---------------------------------------------------------------------------
# Workload: check_large_policy.
# ---------------------------------------------------------------------------

# Rules per document. Op latencies on a shared host are bimodal (fast and
# slow periods), so the sizes sit close together around the median: the
# classes overlap and the median moves smoothly with the share of slow ops,
# instead of jumping between the two modes of a single class.
LARGE_SIZES = (100, 150, 220, 260, 300, 340, 400, 550, 1000)
LARGE_INLINE_SHARE = 0.3
LARGE_LIVE_SHARE = 0.1


def _large_policy(rng, tokens: _Tokens, n_rules: int) -> PolicyModel:
    domain = f"d{tokens()}"
    services = [
        Svc(
            "s00",
            f"sensor://s00[.]{domain}/.+",
            f"sensor://s00.{domain}/dev",
            (("raw",), ("pii",)),
        )
    ]
    creatable = [("geo",), ("anon",), ("cls", "secret")]
    removable = [("raw",), ("pii",), ("cls", None)]
    for i in range(1, 20 + n_rules // 25):
        creates = (rng.choice(creatable),) if rng.random() < 0.2 else ()
        removes = (rng.choice(removable),) if rng.random() < 0.2 else ()
        services.append(
            _https_service(f"s{i:02d}", domain, creates=creates, removes=removes)
        )
    n_inline = round(n_rules * LARGE_INLINE_SHARE)
    n_live = round(n_rules * LARGE_LIVE_SHARE)
    inline = set(rng.sample(range(n_rules), n_inline))
    live = set(rng.sample(range(n_rules), n_live))
    ids: set = set()
    rules = []
    for i in range(n_rules):
        svc = rng.choice(services[1:])
        target = _inline_target(svc, domain, tokens, ids) if i in inline else svc.id
        if i in live:
            triggers = tuple(rng.sample(LIVE_TRIGGERS, rng.choice((1, 2))))
        else:
            triggers = _inert_triggers(rng)
        rules.append(Rule("", target, triggers, rng.choice(EFFECTS), ()))
    return PolicyModel(services, _name_rules(rules))


def check_large_inputs(seed: int, scale: float = 1.0) -> CheckInputs:
    """Policies of 100-1000 rules, 30% with inline endpoint targets.

    Every inline target carries its own endpoint pattern, so one cycle over
    the documents holds more distinct patterns than ``re``'s compile cache,
    and each check compiles its patterns afresh the way a new process does.
    The routes are short (at most 8 statements, 2 choices).
    """
    rng = random.Random(f"check_large_policy:{seed}")
    tokens = _Tokens(rng)
    cases = []
    for d, size in enumerate(LARGE_SIZES):
        policy = _large_policy(rng, tokens, max(10, int(size * scale)))
        by_id = {s.id: s for s in policy.services}
        pool = [s.id for s in policy.services[1:]]
        b = _RouteBuilder(f"large{d}")
        b.plain(("from", "s00"))
        b.plain(("to", rng.choice(pool)))
        b.choice(("prop_eq", "tier", "gold"), ("to", rng.choice(pool)), None)
        b.plain(("to", rng.choice(pool)))
        b.choice(
            ("lt", "level", 5), ("to", rng.choice(pool)), ("bean", rng.choice(pool))
        )
        b.plain(("to", rng.choice(pool)))
        model = b.finish({})
        model.endpoints = _endpoints(rng, model.atoms(), by_id, 0.8)
        cases.append((model, policy))
    rng.shuffle(cases)
    return CheckInputs(cases)
