"""The four workloads: their jobs, the calls into davkit, and the checks.

A workload is one round of operations, run again and again for the length
of a run.  Every operation returns plain data (tuples, lists, dicts) so
that rounds can be compared for equality; round 0 is also checked against
the independent computations in ``check``.  The seed fixes the job order
and, in ``enumerate-certify``, the draw of explicit sets.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

import davkit
import davkit.cli

import check as ck
from check import expect

Raised = namedtuple("Raised", "kind message")
Dav = namedtuple("Dav", "lower upper exact witness moduli nodes prunes closures")
Cli = namedtuple("Cli", "code report error traceback")


@dataclass
class Op:
    """One job: ``call`` runs it, ``check`` judges round 0's output, and
    ``fault`` recognises a known fault of the program, counted as failed."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    fault: Callable[[object], bool] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: list[tuple[str, str | None]]  # (ground spec, sequence) pairs set-up parses
    after: Callable[[list], None] | None = None  # once per run, given round 0's outputs
    replay: list[Op] = field(default_factory=list)  # in-process twins of ``ops``


def run_op(op: Op):
    try:
        return op.call()
    except Exception as exc:  # the output of a failing job is its error
        return Raised(type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# plain forms of davkit's results


def plain(seq) -> tuple[list, tuple]:
    """(multiset, moduli) of a davkit Sequence, in check's element form."""
    out = []
    for e, m in seq.entries:
        if hasattr(e, "group_part"):
            out.append(((tuple(e.group_part), tuple(e.lattice_part.coords)), m))
        else:
            out.append((((), tuple(e.coords)), m))
    moduli = tuple(seq.group.factors) if seq.is_mixed else ()
    return out, moduli


def dav_call(spec: str, cap: int | None, threads: int) -> Callable[[], Dav]:
    def call():
        r = davkit.davenport(davkit.parse_ground_set(spec), cap=cap, threads=threads)
        w, moduli = plain(r.witness) if r.witness else (None, ())
        s = r.stats
        return Dav(r.lower, r.upper, r.exact, w, moduli, s.nodes, s.prunes, s.closures)

    return call


def expect_witness(out: Dav, axes, moduli=()) -> None:
    expect(out.moduli == tuple(moduli), f"witness group {out.moduli}, expected {moduli}")
    ck.expect_atom(out.witness, moduli, size=out.lower, what="witness")
    expect(ck.in_box(out.witness, axes), f"witness leaves the box {axes}")


def exact(value: int, axes, moduli=()):
    """The search is exact and equals a closed form."""

    def f(out: Dav):
        expect(not isinstance(out, Raised), f"raised {out}")
        expect(out.exact and out.lower == out.upper == value, f"got {out[:3]}, expected {value}")
        expect_witness(out, axes, moduli)

    return f


def between(lo: int, hi: int, axes, moduli=()):
    """The search is exact and lies between a proven lower and upper bound."""

    def f(out: Dav):
        expect(out.exact and out.lower == out.upper, f"not exact: {out[:3]}")
        expect(lo <= out.lower <= hi, f"value {out.lower} outside [{lo},{hi}]")
        expect_witness(out, axes, moduli)

    return f


def capped(cap: int, known, up_lo: int, up_hi: int, axes, moduli=()):
    """A search capped at the length of a known atom finds exactly that
    length; its upper bound is proven (>= the true value ``up_lo``) and no
    worse than the paper's bound ``up_hi``."""

    def f(out: Dav):
        ck.expect_atom(known, moduli, size=cap, what="known atom")
        expect(not out.exact and out.lower == cap, f"capped lower {out.lower}, expected {cap}")
        expect(up_lo <= out.upper <= up_hi, f"upper {out.upper} outside [{up_lo},{up_hi}]")
        expect_witness(out, axes, moduli)

    return f


def half_width_fault(out) -> bool:
    return isinstance(out, Raised) and "half-widths" in out.message


def interval(m: int, M: int):
    return [(-m, M)]


# ---------------------------------------------------------------------------
# lattice-exact and mixed-exact


def lattice_exact(seed: int) -> Workload:
    sym = ck.interval_bracket(7, 7)
    coprime = ck.interval_bracket(6, 7)
    noncoprime = ck.interval_bracket(6, 10)
    # atoms of the capped lengths, certified by the check before it relies on them
    square8 = [(((), (-2, -2)), 3), (((), (-2, 2)), 1), (((), (2, 1)), 4)]
    cube7 = [(((), (-1, -1, -1)), 2), (((), (-1, 0, 0)), 1), (((), (0, 1, 1)), 1),
             (((), (1, -1, 1)), 1), (((), (1, 1, 0)), 2)]
    jobs = [
        ("[-7,7]", None, exact(sym[0], interval(7, 7))),
        ("[-6,7]", None, exact(coprime[0], interval(6, 7))),
        ("[-6,10]", None, between(*noncoprime, interval(6, 10))),
        # no closed form: [-1,1]^2 (D = 4) is a sub-box, the box bound is above
        ("[-1,2]x[-1,1]", None, between(4, ck.box_upper([2, 1]), [(-1, 2), (-1, 1)])),
        ("[-2,2]^2", 8, capped(8, square8, ck.cube_lower(2, 2), ck.square_upper(2, 2), [(-2, 2)] * 2)),
        ("[-1,1]^3", 7, capped(7, cube7, ck.cube_lower(1, 3), ck.box_upper([1, 1, 1]), [(-1, 1)] * 3)),
        # a degenerate axis: D([-1,1] x {0}) = D([-1,1]) = 2
        ("[-1,1]x[0,0]", None, exact(2, [(-1, 1), (0, 0)])),
    ]
    ops = [
        Op(spec + (f" --cap {cap}" if cap else ""), dav_call(spec, cap, 1), chk,
           half_width_fault if spec == "[-1,1]x[0,0]" else None)
        for spec, cap, chk in jobs
    ]
    random.Random(seed).shuffle(ops)
    return Workload("lattice-exact", ops, [(spec, None) for spec, _, _ in jobs])


def mixed_exact(seed: int) -> Workload:
    d11 = ck.interval_bracket(1, 1)[0]
    d22 = ck.interval_bracket(2, 2)[0]
    g22 = ck.group_exact((2, 2))
    # (0|-2)^3 (1|2)^2 (3|2): an atom of length 6 over C5 x [-2,2]
    c5_six = [(((0,), (-2,)), 3), (((1,), (2,)), 2), (((3,), (2,)), 1)]
    # the group-box construction over C2 x [-1,1]^2: the unit-square atom
    # (1,1)(-1,1)(0,-1)^2 with weight 1 on (1,1), every multiplicity doubled
    c2_square = [(((0,), (-1, 1)), 2), (((0,), (0, -1)), 4), (((1,), (1, 1)), 2)]
    jobs = [
        ("C3x[-2,2]", None, exact(3 * d22, interval(2, 2), (3,))),
        ("C5x[-1,1]", None, exact(5 * d11, interval(1, 1), (5,))),
        ("C6x[-1,1]", None, exact(6 * d11, interval(1, 1), (6,))),
        # D(G x X) lies between max(D(G), D(X)) and D(G) D(X)
        ("C2xC2x[-1,1]", None, between(max(g22, d11), g22 * d11, interval(1, 1), (2, 2))),
        ("C5x[-2,2]", 6, capped(6, c5_six, 5 * d22, 5 * 4, interval(2, 2), (5,))),
        ("C2x[-1,1]^2", 8, capped(8, c2_square, 2 * ck.cube_lower(1, 2),
                                  2 * ck.box_upper([1, 1]), [(-1, 1)] * 2, (2,))),
    ]
    ops = [
        Op(spec + (f" --cap {cap}" if cap else ""), dav_call(spec, cap, 1), chk)
        for spec, cap, chk in jobs
    ]
    random.Random(seed).shuffle(ops)
    return Workload("mixed-exact", ops, [(spec, None) for spec, _, _ in jobs])


# ---------------------------------------------------------------------------
# enumerate-certify

SQUARE = [(-2, 2)] * 2
SQUARE_ATOMS_8 = 644  # regenerate: python3 davbench/check.py (about 10 s)


def square_images(atom):
    """The images of an atom over [-2,2]^2 under the square's 8 symmetries."""
    for k in range(8):
        image = []
        for (r, (x, y)), m in atom:
            if k & 4:
                x, y = y, x
            image.append(((r, (-x if k & 1 else x, -y if k & 2 else y)), m))
        yield ck.canon(image)


def inverse_call(threads: int):
    def call():
        report = davkit.verify_inverse(range(2, 8), threads=threads)
        return report.ok, [(c.name, c.ok, c.expected, c.found) for c in report.checks]

    return call


def check_inverse(out) -> None:
    ok, checks = out
    want = {}
    for m in range(2, 8):
        want[f"[-{m},{m}] length {2 * m - 1}"] = set(ck.sym_max_templates(m).values())
        if m >= 3:
            want[f"[-{m},{m}] length {2 * m - 2}"] = set(ck.sym_submax_templates(m).values())
        for M in range(2, 8):
            if M != m and gcd(m, M) == 1:
                want[f"[-{m},{M}] length {m + M}"] = {ck.interval_max_template(m, M)}
    expect(ok, "verify_inverse reports a failure")
    expect(sorted(name for name, *_ in checks) == sorted(want), "verify_inverse ran other checks")
    for name, c_ok, expected, found in checks:
        found_set = {ck.canon(ck.parse_text(t)) for t in found}
        expect(c_ok and found_set == want[name], f"{name}: found {found}")
        expect({ck.canon(ck.parse_text(t)) for t in expected} == want[name], f"{name}: expected {expected}")
        for atom in found_set:
            ck.expect_atom(list(atom), what=name)


def listing_call(list_fn, squares: bool = False):
    """List atoms, then ask davkit.is_minimal about each and, with
    ``squares``, about its square, which is zero-sum but never minimal."""

    def call():
        atoms = list_fn()
        verdicts = [(davkit.is_minimal(a), squares and davkit.is_minimal(a.power(2))) for a in atoms]
        return [plain(a)[0] for a in atoms], verdicts

    return call


def expect_certified(verdicts) -> None:
    expect(all(atom for atom, _ in verdicts), "is_minimal rejects a listed atom")
    expect(not any(square for _, square in verdicts), "is_minimal accepts the square of an atom")


def check_square_atoms(root):
    def f(out) -> None:
        atoms, verdicts = out
        expect_certified(verdicts)
        found = {ck.canon(a) for a in atoms}
        expect(len(found) == len(atoms) == SQUARE_ATOMS_8, f"{len(atoms)} atoms, expected {SQUARE_ATOMS_8}")
        for atom in found:
            ck.expect_atom(list(atom), size=8, what="listed atom")
            expect(ck.in_box(atom, SQUARE), f"atom leaves the square: {atom}")
            for image in square_images(atom):
                expect(image in found, f"list not closed under the square's symmetries: {atom}")
        # completeness, on the atoms whose smallest element is the seeded root
        own = ck.lattice_atoms(list(itertools.product(range(-2, 3), repeat=2)), 8, exact=True, first=root)
        expect({a for a in found if a[0][0][1] == root} == own, f"atoms from {root} differ")

    return f


def check_all_atoms(values):
    def f(out) -> None:
        atoms, verdicts = out
        expect_certified(verdicts)
        found = {ck.canon(a) for a in atoms}
        diam = max(values) - min(values)
        expect(len(found) == len(atoms), "duplicate atoms")
        expect(found == ck.lattice_atoms([(v,) for v in values], diam), f"atoms of {values} differ")
        longest = max(ck.length(a) for a in atoms)
        expect(ck.chi(values) <= longest <= diam, f"longest atom {longest} outside [chi, diam]")

    return f


def construction(fn: str, args, size: int, axes, moduli=()):
    name = f"{fn}{args}"

    def call():
        return plain(getattr(davkit, fn)(*args))

    def f(out) -> None:
        ms, got_moduli = out
        expect(got_moduli == moduli, f"group {got_moduli}, expected {moduli}")
        ck.expect_atom(ms, moduli, size=size, what=name)
        expect(ck.in_box(ms, axes), f"{name} leaves the box")

    return Op(name, call, f)


def explicit_sets(rng: random.Random, count: int = 4) -> list[list[int]]:
    pool = [v for v in range(-7, 8) if v]
    out = []
    while len(out) < count:
        values = sorted(rng.sample(pool, 5))
        if values[0] < 0 < values[-1]:
            out.append(values)
    return out


def enumerate_certify(seed: int) -> Workload:
    rng = random.Random(seed)
    sets = explicit_sets(rng)
    root = rng.choice(sorted(itertools.product(range(-2, 3), repeat=2)))
    square = davkit.parse_ground_set("[-2,2]^2")
    ops = [
        Op("verify_inverse(2..7)", inverse_call(2), check_inverse),
        Op("atoms_of_length([-2,2]^2, 8)",
           listing_call(lambda: davkit.atoms_of_length(square, 8, threads=2)),
           check_square_atoms(root)),
        construction("hypercube_atom", (3, 3), ck.cube_lower(3, 3), [(-3, 3)] * 3),
        construction("group_box_atom", (5, 3, 2), 5 * ck.cube_lower(3, 2), [(-3, 3)] * 2, (5,)),
    ]
    for values in sets:
        spec = "{" + ",".join(map(str, values)) + "}"
        ops.append(Op(f"all_atoms({spec})",
                      listing_call(lambda s=spec: davkit.all_atoms(davkit.parse_ground_set(s)), squares=True),
                      check_all_atoms(values)))
    rng.shuffle(ops)

    def after(outputs) -> None:
        """The atom lists do not depend on the thread count."""
        by_name = dict(zip((op.name for op in ops), outputs))
        expect(inverse_call(1)() == by_name["verify_inverse(2..7)"], "verify_inverse differs at threads=1")
        one = [plain(a)[0] for a in davkit.atoms_of_length(square, 8, threads=1)]
        expect(one == by_name["atoms_of_length([-2,2]^2, 8)"][0], "atoms_of_length differs at threads=1")

    inputs = [("[-2,2]^2", None)] + [(f"[-{m},{m}]", None) for m in range(2, 8)]
    inputs += [("{" + ",".join(map(str, v)) + "}", None) for v in sets]
    return Workload("enumerate-certify", ops, inputs, after=after)


# ---------------------------------------------------------------------------
# cli-batch


def cli_env() -> dict:
    src = os.path.dirname(os.path.dirname(davkit.__file__))
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def normalise(code: int, out: str, err: str) -> Cli:
    """Exit code, report without its timing, and the last line of stderr."""
    report = json.loads(out) if code == 0 and out.strip() else None
    if report and "stats" in report:
        report["stats"].pop("elapsed_s", None)
    lines = err.strip().splitlines()
    return Cli(code, report, lines[-1] if lines else "", "Traceback" in err)


def subprocess_call(argv: list[str], env: dict):
    def call():
        p = subprocess.run([sys.executable, "-m", "davkit", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
        return normalise(p.returncode, p.stdout, p.stderr)

    return call


def replay_call(argv: list[str]):
    """The same job through davkit.cli.main in this process."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = davkit.cli.main(list(argv))
            except Exception as exc:  # what the interpreter would print and exit 1 for
                return Cli(1, None, f"{type(exc).__name__}: {exc}", True)
        return normalise(code, out.getvalue(), err.getvalue())

    return call


def ok_report(out: Cli) -> dict:
    expect(out.code == 0 and out.report is not None, f"exit {out.code}: {out.error}")
    return out.report["result"]


def seq_of(text: str, moduli=()) -> list:
    ms = ck.parse_text(text)
    return [(((tuple(x % n for x, n in zip(r, moduli))), v), m) for (r, v), m in ms]


def bracket(lo_min: int, up_max: int, up_min: int = 0):
    def f(out: Cli):
        r = ok_report(out)
        expect(lo_min <= r["lower"] <= r["upper"] <= up_max, f"bracket {r['lower']},{r['upper']}")
        expect(r["upper"] >= up_min, f"upper {r['upper']} below {up_min}")
        expect(r["exact"] == (r["lower"] == r["upper"]), "exact flag disagrees")

    return f


def bound_exact(value: int):
    def f(out: Cli):
        r = ok_report(out)
        expect(r["exact"] and r["lower"] == r["upper"] == r["value"] == value, f"bounds {r}, expected {value}")

    return f


def minimality(text: str, moduli=()):
    def f(out: Cli):
        r = ok_report(out)
        ms = seq_of(text, moduli)
        expect(ck.canon(ck.from_json(r["sequence"])) == ck.canon(ms), "sequence read back differs")
        zero = ck.total(ms, moduli) == ck._zero(ms[0][0])
        expect(r["zero_sum"] == zero, "zero_sum is wrong")
        expect(r["minimal"] == ck.is_atom(ms, moduli), "minimal is wrong")
        if zero and not r["minimal"]:
            expect(ck.is_proper_zero_sub(ck.from_json(r["witness"]), ms, moduli), "bad witness")
        else:
            expect(r["witness"] is None, "unexpected witness")

    return f


def rejected(out: Cli):
    expect(out.code == 1 and not out.traceback and out.error.startswith("error:"),
           f"expected a clean usage error, got exit {out.code}: {out.error}")


def sign_opposing(text: str, lo: int, hi: int):
    def f(out: Cli):
        r = ok_report(out)
        values = [v[0] for (_, v), m in ck.parse_text(text) for _ in range(m)]
        expect(r["mode"] == "sign-opposing", r["mode"])
        ck.check_sign_opposing(values, r["perm"], r["elements"], r["prefix_sums"], lo, hi)
        c = r["containment"]
        expect(c["interval"] == [lo, hi], "containment interval")
        expect([c["min_prefix"], c["max_prefix"]] == [min(r["prefix_sums"]), max(r["prefix_sums"])], "extrema")

    return f


def greedy(text: str):
    def f(out: Cli):
        r = ok_report(out)
        vectors = [v for (_, v), m in ck.parse_text(text) for _ in range(m)]
        ck.check_reordering(vectors, r["perm"], r["elements"], r["prefix_sums"], r["achieved_box"])
        expect(r["achieved_sup"] == max(max(map(abs, p)) for p in r["prefix_sums"]), "achieved_sup")

    return f


def classified(m: int, text: str, M: int | None = None):
    def f(out: Cli):
        r = ok_report(out)
        ms = ck.canon(ck.parse_text(text))
        if M is not None:
            cases = {"INTERVAL_MAX": ck.interval_max_template(m, M)} if gcd(m, M) == 1 else {}
        elif ck.length(ms) == 2 * m - 1:
            cases = ck.sym_max_templates(m)
        else:
            cases = ck.sym_submax_templates(m)
        case = next((c for c, t in cases.items() if t == ms), "NONE")
        expect((r["matches"], r["case"]) == (case != "NONE", case), f"classified {r}, expected {case}")

    return f


def constructed(size: int, axes, moduli=(), equals=None):
    def f(out: Cli):
        r = ok_report(out)
        ms = ck.from_json(r["sequence"])
        expect(r["length"] == size and r["certified"], f"length {r['length']}, expected {size}")
        ck.expect_atom(ms, moduli, size=size, what="construction")
        expect(ck.in_box(ms, axes), "construction leaves the box")
        if equals is not None:
            expect(ck.canon(ms) == equals, "construction differs from the paper's")

    return f


def powers(out: Cli):
    r = ok_report(out)
    expect(r["ok"] and len(r["checks"]) == 7, "power checks")
    for c in r["checks"]:
        u = len(c["expected"])
        expect(c["ok"] and c["expected"] == list(range(1, u + 1)) and c["found"] == u, str(c))


def dav_value(value: int, axes, moduli=()):
    def f(out: Cli):
        r = ok_report(out)
        expect(r["exact"] and r["value"] == r["lower"] == r["upper"] == value, f"value {r['value']}, expected {value}")
        ms = ck.from_json(r["witness"])
        ck.expect_atom(ms, moduli, size=value, what="witness")
        expect(ck.in_box(ms, axes), "witness leaves the ground set")
        expect(out.report["stats"]["nodes"] >= 1, "no search stats")

    return f


def atom_list(expected: set):
    def f(out: Cli):
        r = ok_report(out)
        found = [ck.canon(ck.from_json(a)) for a in r["atoms"]]
        expect(r["count"] == len(found) == len(set(found)), "atom count")
        expect(set(found) == expected, f"atoms {[a['text'] for a in r['atoms']]}")

    return f


def cli_jobs() -> list[tuple[list[str], Callable, Callable | None]]:
    d = ck.interval_bracket
    explicit = [-3, -1, 2]
    explicit_d = max(ck.length(a) for a in ck.lattice_atoms([(v,) for v in explicit], 5))
    jobs = [
        (["bounds", "[-2,3]"], bound_exact(d(2, 3)[0])),
        (["bounds", "[-4,6]"], bracket(*d(4, 6))),
        (["bounds", "[-2,2]^2"], bracket(ck.cube_lower(2, 2), ck.square_upper(2, 2), ck.cube_lower(2, 2))),
        (["bounds", "[-1,1]^3"], bracket(ck.cube_lower(1, 3), ck.box_upper([1, 1, 1]), ck.cube_lower(1, 3))),
        (["bounds", "[-1,2]x[-1,1]"], bracket(0, ck.box_upper([2, 1]), 4)),
        (["bounds", "C3x[-2,2]"], bound_exact(3 * d(2, 2)[0])),
        (["bounds", "--group", "C2xC4"], bound_exact(ck.group_exact((2, 4)))),
        (["bounds", "--group", "C2xC2xC2"], bound_exact(ck.group_exact((2, 2, 2)))),
    ]
    for ground, seq, moduli in [
        ("[-2,3]", "3^2*(-2)^3", ()),
        ("[-3,3]", "1*2*(-3)", ()),
        ("[-3,3]", "1^3*(-1)^3", ()),
        ("[-1,1]^2", "(1,1)*(-1,1)*(0,-1)^2", ()),
        ("[-2,2]^2", "(2,1)*(-1,0)^2*(0,-1)", ()),
        ("C2x[-1,1]", "(1|1)^2*(0|-1)^2", (2,)),
        ("C3x[-1,1]", "(1|0)^3", (3,)),
    ]:
        jobs.append((["check-minimal", ground, "--seq", seq], minimality(seq, moduli)))
    jobs += [
        # kept faults: a bad token must be a ParseError, and a residue tuple
        # longer than the group's rank must be rejected, not truncated
        (["check-minimal", "[-2,2]", "--seq", "(a,1)"], rejected, lambda o: o.traceback),
        (["check-minimal", "C2x[-1,1]", "--seq", "(1,1|1)*(1|-1)"], rejected, lambda o: o.code == 0),
        (["reorder", "--seq", "3^2*(-2)^3", "--seed-element", "3"], sign_opposing("3^2*(-2)^3", -2, 3)),
        (["reorder", "[-5,5]", "--seq", "5^4*(-4)^5", "--seed-element", "-4"], sign_opposing("5^4*(-4)^5", -5, 5)),
        (["reorder", "--seq", "(1,1)*(-1,1)*(0,-1)^2"], greedy("(1,1)*(-1,1)*(0,-1)^2")),
        (["reorder", "--seq", "(2,1)*(-1,0)^2*(0,-1)"], greedy("(2,1)*(-1,0)^2*(0,-1)")),
        (["classify", "--m", "3", "--seq", "3^2*(-2)^3"], classified(3, "3^2*(-2)^3")),
        (["classify", "--m", "3", "--seq", "(-3)^2*2^3"], classified(3, "(-3)^2*2^3")),
        (["classify", "--m", "3", "--seq", "3*(-1)^3"], classified(3, "3*(-1)^3")),
        (["classify", "--m", "4", "--seq", "4^2*(-3)^3*1"], classified(4, "4^2*(-3)^3*1")),
        (["classify", "--m", "3", "--seq", "1^5"], classified(3, "1^5")),
        (["classify", "--m", "2", "--M", "3", "--seq", "3^2*(-2)^3"], classified(2, "3^2*(-2)^3", 3)),
        (["construct", "--kind", "interval-max", "--m", "2", "--M", "3"],
         constructed(5, interval(2, 3), equals=ck.interval_max_template(2, 3))),
        (["construct", "--kind", "hypercube", "--m", "2", "--d", "2"],
         constructed(ck.cube_lower(2, 2), [(-2, 2)] * 2, equals=ck.canon(ck.cube_atom(2, 2)))),
        (["construct", "--kind", "hypercube", "--m", "1", "--d", "3"],
         constructed(ck.cube_lower(1, 3), [(-1, 1)] * 3, equals=ck.canon(ck.cube_atom(1, 3)))),
        (["construct", "--kind", "group-box", "--n", "3", "--m", "2", "--d", "1"],
         constructed(3 * ck.cube_lower(2, 1), interval(2, 2), (3,))),
        (["construct", "--kind", "group-box", "--n", "2", "--m", "1", "--d", "2"],
         constructed(2 * ck.cube_lower(1, 2), [(-1, 1)] * 2, (2,))),
        (["verify", "--powers"], powers),
        (["davenport", "[-2,3]"], dav_value(d(2, 3)[0], interval(2, 3))),
        (["davenport", "C3x[-1,1]"], dav_value(3 * d(1, 1)[0], interval(1, 1), (3,))),
        (["davenport", "[-1,1]^2"], dav_value(4, [(-1, 1)] * 2)),  # the unit square: D = 4
        (["davenport", "{-3,-1,2}"], dav_value(explicit_d, interval(3, 2))),
        (["atoms", "[-3,3]", "--length", "4"], atom_list(set(ck.sym_submax_templates(3).values()))),
        (["atoms", "[-2,3]", "--length", "5"], atom_list({ck.interval_max_template(2, 3)})),
        (["atoms", "[-2,2]", "--length", "2"],
         atom_list(ck.lattice_atoms([(v,) for v in range(-2, 3)], 2, exact=True))),
    ]
    return [job if len(job) == 3 else (*job, None) for job in jobs]


def cli_batch(seed: int) -> Workload:
    jobs = cli_jobs()
    random.Random(seed).shuffle(jobs)
    env = cli_env()
    ops, replay, inputs = [], [], []
    for argv, chk, fault in jobs:
        name = "davkit " + " ".join(argv)
        ops.append(Op(name, subprocess_call(argv, env), chk, fault))
        replay.append(Op(name, replay_call(argv), chk, fault))
        ground = argv[1] if len(argv) > 1 and not argv[1].startswith("--") else None
        seq = argv[argv.index("--seq") + 1] if "--seq" in argv else None
        inputs.append((ground, seq))
    return Workload("cli-batch", ops, inputs, replay=replay)


WORKLOADS = {
    "lattice-exact": lattice_exact,
    "mixed-exact": mixed_exact,
    "enumerate-certify": enumerate_certify,
    "cli-batch": cli_batch,
}
