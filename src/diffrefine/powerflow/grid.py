"""Grid data model and the sectioned plain-text case format.

A case file holds one ``base_mva`` directive and three sections:

    [bus]     id kind pd_mw qd_mvar gs_mw bs_mvar vm va_deg base_kv
    [gen]     bus pg_mw vset_pu
    [branch]  from to r_pu x_pu b_pu tap shift_deg

Tokens are whitespace-delimited, ``#`` starts a comment, kind is one
of slack/pv/pq.  Loads, shunts, and generation are given in MW/MVAr
and converted to per-unit on base_mva at parse time.  The vm/va_deg
columns carry a published reference operating point for tests; the
solver itself always flat-starts.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from ..errors import ParseError, ValidationError

BUNDLED_CASES = ("ieee14", "ieee30")

SLACK, PV, PQ = "slack", "pv", "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str
    pd: float  # pu
    qd: float
    gs: float
    bs: float
    vm_ref: float
    va_ref: float  # radians
    base_kv: float = 0.0


@dataclass(frozen=True)
class Generator:
    bus: int  # bus id, not index
    pg: float  # pu
    vset: float


@dataclass(frozen=True)
class Branch:
    f: int  # bus ids
    t: int
    r: float
    x: float
    b: float
    tap: float = 1.0
    shift: float = 0.0  # radians


@dataclass
class GridCase:
    """Validated network with derived index arrays.

    Bus order follows the file; ids map to 0-based indices through
    ``index_of``.  Arrays are per-unit on base_mva.
    """

    name: str
    base_mva: float
    buses: list
    generators: list
    branches: list

    n: int = field(init=False)
    index_of: dict = field(init=False)
    slack: int = field(init=False)
    pv: np.ndarray = field(init=False)
    pq: np.ndarray = field(init=False)
    non_slack: np.ndarray = field(init=False)
    pd: np.ndarray = field(init=False)
    qd: np.ndarray = field(init=False)
    gs: np.ndarray = field(init=False)
    bs: np.ndarray = field(init=False)
    pg: np.ndarray = field(init=False)  # bus-sized, summed over gens
    vset: np.ndarray = field(init=False)  # 1.0 where no generator
    vm_ref: np.ndarray = field(init=False)
    va_ref: np.ndarray = field(init=False)

    def __post_init__(self):
        self.n = len(self.buses)
        self.index_of = {b.id: i for i, b in enumerate(self.buses)}
        slacks = [i for i, b in enumerate(self.buses) if b.kind == SLACK]
        self.slack = slacks[0] if slacks else -1
        self.pv = np.array([i for i, b in enumerate(self.buses) if b.kind == PV], dtype=int)
        self.pq = np.array([i for i, b in enumerate(self.buses) if b.kind == PQ], dtype=int)
        self.non_slack = np.array(
            [i for i, b in enumerate(self.buses) if b.kind != SLACK], dtype=int
        )
        self.pd = np.array([b.pd for b in self.buses])
        self.qd = np.array([b.qd for b in self.buses])
        self.gs = np.array([b.gs for b in self.buses])
        self.bs = np.array([b.bs for b in self.buses])
        self.vm_ref = np.array([b.vm_ref for b in self.buses])
        self.va_ref = np.array([b.va_ref for b in self.buses])
        self.pg = np.zeros(self.n)
        self.vset = np.ones(self.n)
        for g in self.generators:
            i = self.index_of.get(g.bus)
            if i is not None:
                self.pg[i] += g.pg
                self.vset[i] = g.vset

    @property
    def n_unknowns(self) -> int:
        return len(self.non_slack) + len(self.pq)

    @functools.cached_property
    def state_layout(self) -> StateLayout:
        """The flat start and the solver's gather indices, built on
        first use and kept read-only."""
        vm0 = np.ones(self.n)
        fixed = np.concatenate(([self.slack], self.pv)).astype(int)
        vm0[fixed] = self.vset[fixed]
        va0 = np.full(self.n, self.va_ref[self.slack])
        row_bus = np.concatenate([self.non_slack, self.pq])
        row_part = np.repeat([0, 1], [len(self.non_slack), len(self.pq)])  # P, then Q
        col = np.concatenate([self.non_slack, self.n + self.pq])
        jacobian_index = 4 * self.n * row_bus[None, :] + 2 * col[:, None] + row_part[None, :]
        residual_index = 2 * row_bus + row_part
        for a in (vm0, va0, residual_index, jacobian_index):
            a.flags.writeable = False
        return StateLayout(vm0, va0, residual_index, jacobian_index)


@dataclass(frozen=True)
class StateLayout:
    """Where the packed unknowns and the mismatch rows sit in bus arrays.

    vm0, va0: the flat start, unit magnitude and the slack angle at every
    bus with the regulated buses at their setpoints.
    residual_index: P at non-slack buses, then Q at PQ buses, as indices
    into the float view of an (n,) complex power vector.
    jacobian_index: entry [c, r] is the Newton Jacobian's entry (r, c) as
    an index into the float view of one (n, 2n) complex block holding
    dS/dVa then dS/dVm: rows are P at non-slack then Q at PQ buses,
    columns Va at non-slack then Vm at PQ buses.  It is stored column
    by column so that a gather with it, transposed, is column-major.
    """

    vm0: np.ndarray
    va0: np.ndarray
    residual_index: np.ndarray
    jacobian_index: np.ndarray


_SECTION_COLUMNS = {"bus": 9, "gen": 3, "branch": 7}


def _tokens_with_columns(line: str):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_case(text: str, name: str = "case") -> GridCase:
    """Parse and validate the sectioned case format.

    ParseError carries the 1-based line and column of the offending
    token; ValidationError names the violated invariant.
    """
    base_mva = None
    section = None
    buses: list = []
    gens: list = []
    branches: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _tokens_with_columns(line)
        word, col = toks[0]
        if word == "base_mva":
            if len(toks) != 2:
                raise ParseError("base_mva takes exactly one value", line=lineno, column=col)
            base_mva = _parse_float(toks[1], lineno)
            if base_mva <= 0:
                raise ParseError("base_mva must be positive", line=lineno, column=toks[1][1])
            continue
        if word.startswith("["):
            sec = word.strip("[]")
            if word != f"[{sec}]" or sec not in _SECTION_COLUMNS:
                raise ParseError(f"unknown section {word!r}", line=lineno, column=col)
            section = sec
            continue
        if section is None:
            raise ParseError(f"data before any section: {word!r}", line=lineno, column=col)
        want = _SECTION_COLUMNS[section]
        if len(toks) != want:
            raise ParseError(
                f"[{section}] row needs {want} columns, got {len(toks)}",
                line=lineno,
                column=col,
            )
        if base_mva is None:
            raise ParseError("base_mva must appear before data rows", line=lineno, column=col)
        if section == "bus":
            kind = toks[1][0].lower()
            if kind not in (SLACK, PV, PQ):
                raise ParseError(f"bus kind must be slack/pv/pq, got {toks[1][0]!r}",
                                 line=lineno, column=toks[1][1])
            buses.append(Bus(
                id=_parse_int(toks[0], lineno),
                kind=kind,
                pd=_parse_float(toks[2], lineno) / base_mva,
                qd=_parse_float(toks[3], lineno) / base_mva,
                gs=_parse_float(toks[4], lineno) / base_mva,
                bs=_parse_float(toks[5], lineno) / base_mva,
                vm_ref=_parse_float(toks[6], lineno),
                va_ref=np.radians(_parse_float(toks[7], lineno)),
                base_kv=_parse_float(toks[8], lineno),
            ))
        elif section == "gen":
            gens.append(Generator(
                bus=_parse_int(toks[0], lineno),
                pg=_parse_float(toks[1], lineno) / base_mva,
                vset=_parse_float(toks[2], lineno),
            ))
        else:
            branches.append(Branch(
                f=_parse_int(toks[0], lineno),
                t=_parse_int(toks[1], lineno),
                r=_parse_float(toks[2], lineno),
                x=_parse_float(toks[3], lineno),
                b=_parse_float(toks[4], lineno),
                tap=_parse_float(toks[5], lineno),
                shift=np.radians(_parse_float(toks[6], lineno)),
            ))

    if base_mva is None or not buses:
        raise ParseError("case text has no base_mva directive or bus rows", line=1, column=1)
    case = GridCase(name=name, base_mva=base_mva, buses=buses, generators=gens, branches=branches)
    validate_case(case)
    return case


def _parse_float(tok, lineno: int) -> float:
    text, col = tok
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", line=lineno, column=col) from None
    if not np.isfinite(v):
        raise ParseError(f"non-finite value {text!r}", line=lineno, column=col)
    return v


def _parse_int(tok, lineno: int) -> int:
    text, col = tok
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", line=lineno, column=col) from None


def validate_case(case: GridCase) -> None:
    """Check the structural invariants of a parsed case."""
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        raise ValidationError("bus ids must be unique")
    slacks = [b for b in case.buses if b.kind == SLACK]
    if len(slacks) != 1:
        raise ValidationError(f"exactly one slack bus required, found {len(slacks)}")
    gen_buses = set()
    for g in case.generators:
        if g.bus not in case.index_of:
            raise ValidationError(f"generator references unknown bus {g.bus}")
        kind = case.buses[case.index_of[g.bus]].kind
        if kind == PQ:
            raise ValidationError(f"generator at PQ bus {g.bus}; mark the bus pv")
        if g.vset <= 0:
            raise ValidationError(f"generator at bus {g.bus} has non-positive vset")
        gen_buses.add(g.bus)
    for b in case.buses:
        if b.kind in (SLACK, PV) and b.id not in gen_buses:
            raise ValidationError(f"{b.kind} bus {b.id} has no generator to set its voltage")
    for br in case.branches:
        if br.f not in case.index_of or br.t not in case.index_of:
            raise ValidationError(f"branch {br.f}-{br.t} references an unknown bus")
        if br.f == br.t:
            raise ValidationError(f"branch {br.f}-{br.t} is a self-loop")
        if br.tap <= 0:
            raise ValidationError(f"branch {br.f}-{br.t} has non-positive tap {br.tap}")
    if not _connected(case):
        raise ValidationError("network graph is not connected")


def _connected(case: GridCase) -> bool:
    if case.n == 0:
        return False
    adj: dict = {i: [] for i in range(case.n)}
    for br in case.branches:
        i, j = case.index_of[br.f], case.index_of[br.t]
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == case.n


def load_case(name_or_path: str) -> GridCase:
    """Load a bundled case by name or any case file by path."""
    if name_or_path in BUNDLED_CASES:
        text = (
            resources.files("diffrefine.powerflow")
            .joinpath(f"cases/{name_or_path}.case")
            .read_text()
        )
        return parse_case(text, name=name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise ValidationError(
            f"unknown case {name_or_path!r}; bundled cases: {', '.join(BUNDLED_CASES)}"
        )
    return parse_case(path.read_text(), name=path.stem)


def case_text(name: str) -> str:
    """Raw text of a bundled case (used for dataset manifests)."""
    if name not in BUNDLED_CASES:
        raise ValidationError(f"not a bundled case: {name!r}")
    return (
        resources.files("diffrefine.powerflow").joinpath(f"cases/{name}.case").read_text()
    )
