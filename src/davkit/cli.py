"""Command-line front end: batch computation with machine-readable output.

One job per invocation; JSON (schema ``davkit/1``) is the primary format,
with a stable field order so reproduction scripts can diff outputs.  CSV
is available for tabular atom lists only, and ``text`` gives a short
human-readable summary.  Search progress streams to stderr, never stdout.

Exit codes: 0 success; 1 usage error; 2 guard or cap exceeded;
3 internal consistency failure (a certified identity failed to verify -
never expected); 141 the reader closed stdout before the output was
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds as _bounds
from . import constructions as _constructions
from . import inverse as _inverse
from . import reorder as _reorder
from . import search as _search
from . import zerosum as _zerosum
from .core import (
    Box,
    ConsistencyError,
    GroundSet,
    GroupProduct,
    GuardExceededError,
    OverflowGuardError,
    ParseError,
    Sequence,
    ValidationError,
    _number,
    check_threads,
    contains_element,
    emit_ground_set,
    parse_ground_set,
    parse_group,
    parse_sequence,
    record,
    sequence_to_json,
)

SCHEMA = "davkit/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_CONSISTENCY = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer killed by it


@record
class JobSpec:
    command: str
    ground: str | None
    parameters: dict
    output: str
    no_stats: bool
    threads: int

    def __init__(
        self,
        command: str,
        ground: str | None = None,
        parameters: dict | None = None,
        output: str = "json",
        no_stats: bool = False,
        threads: int = 0,
    ):
        self.command = command
        self.ground = ground
        self.parameters = {} if parameters is None else parameters  # one dict per job
        self.output = output
        self.no_stats = no_stats
        self.threads = threads

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "command": self.command,
            "ground": self.ground,
            "parameters": self.parameters,
            "output": self.output,
            "no_stats": self.no_stats,
            "threads": self.threads,
        }

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        return cls(
            command=data["command"],
            ground=data.get("ground"),
            parameters=dict(data.get("parameters") or {}),
            output=data.get("output", "json"),
            no_stats=bool(data.get("no_stats", False)),
            threads=data.get("threads", 0),
        )


def _stats_json(stats: _search.SearchStats) -> dict:
    return {
        "nodes": stats.nodes,
        "prunes": stats.prunes,
        "closures": stats.closures,
        "elapsed_s": round(stats.elapsed, 6),
    }


def _print_progress(nodes: int, best: int) -> None:
    print(f"progress: nodes={nodes} best={best}", file=sys.stderr, flush=True)


def _require_ground(spec: JobSpec) -> GroundSet:
    if not spec.ground:
        raise ValidationError(f"command {spec.command!r} needs a ground set")
    return parse_ground_set(spec.ground)


def _int_params(spec: JobSpec, *names: str) -> list[int]:
    """The named parameters, ints as the parser read them; ValidationError
    if one is missing or, in a JobSpec built by hand, is not an int."""
    values = [spec.parameters.get(name) for name in names]
    for name, value in zip(names, values):
        if value is None:
            raise ValidationError(f"missing --{name}")
        if type(value) is not int:
            raise ValidationError(f"--{name} must be an integer, got {value!r}")
    return values


def _read_number(text: str, what: str, pos: int | None = None) -> int:
    """A number of the grammar, whitespace ignored as in a ground set."""
    return _number("".join(text.split()), what, pos)


def _parse_seq_param(spec: JobSpec, ground: GroundSet | None) -> Sequence:
    text = spec.parameters.get("seq")
    if not text:
        raise ValidationError("missing --seq")
    group = ground.group if isinstance(ground, GroupProduct) else None
    s = parse_sequence(text, group=group)
    if ground is not None:
        for e, _ in s.entries:
            if not contains_element(ground, e):
                raise ValidationError(f"element {e} is not in {emit_ground_set(ground)}")
    return s


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, result, provenance, exact, stats)


def _cmd_davenport(spec: JobSpec):
    ground = _require_ground(spec)
    cap = spec.parameters.get("cap")
    result = _search.davenport(ground, cap=cap, threads=spec.threads, progress=_print_progress)
    payload = {
        "value": result.lower if result.exact else None,
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "witness": sequence_to_json(result.witness) if result.witness else None,
    }
    return EXIT_OK, payload, list(result.provenance), result.exact, _stats_json(result.stats)


def _cmd_atoms(spec: JobSpec):
    ground = _require_ground(spec)
    (length,) = _int_params(spec, "length")
    atoms = _search.atoms_of_length(ground, length, threads=spec.threads)
    payload = {
        "length": length,
        "count": len(atoms),
        "atoms": [sequence_to_json(a) for a in atoms],
    }
    return EXIT_OK, payload, ["exhaustive-search"], True, None


def _cmd_check_minimal(spec: JobSpec):
    ground = parse_ground_set(spec.ground) if spec.ground else None
    s = _parse_seq_param(spec, ground)
    zero = _zerosum.is_zero_sum(s)
    witness = _zerosum.find_proper_zero_subsum(s) if zero else None
    payload = {
        "sequence": sequence_to_json(s),
        "zero_sum": zero,
        "minimal": zero and witness is None,
        "witness": sequence_to_json(witness.sub) if witness else None,
    }
    return EXIT_OK, payload, ["reachable-sum-dp"], True, None


def _cmd_reorder(spec: JobSpec):
    ground = parse_ground_set(spec.ground) if spec.ground else None
    s = _parse_seq_param(spec, ground)
    if s.dim == 1 and not s.is_mixed:
        flat = [e.coords[0] for e in s.flatten()]
        if (seed_text := spec.parameters.get("seed_element")) is not None:
            target = _read_number(seed_text, "seed element", 0)
            if target not in flat:
                raise ValidationError(f"seed element {target} not in the sequence")
            seed = [flat.index(target)]
        else:
            seed = [0]
        ordering = _reorder.nyctalopic_extend(s, seed)
        if isinstance(ground, Box):  # it holds the 1-D sequence, so it has one axis
            (lo, hi), = ground.intervals
        else:
            lo, hi = min(flat), max(flat)
        report = _reorder.containment_check(s, ordering, lo, hi)
        payload = {
            "mode": "sign-opposing",
            "perm": list(ordering.perm),
            "elements": list(ordering.elements),
            "prefix_sums": list(ordering.prefix_sums),
            "containment": {
                "interval": [lo, hi],
                "min_prefix": report.min_prefix,
                "max_prefix": report.max_prefix,
                "left_strict": report.left_strict,
                "right_strict": report.right_strict,
            },
        }
        return EXIT_OK, payload, ["sign-opposing-extension"], True, None
    ordering, achieved = _reorder.greedy_box_reorder(s)
    payload = {
        "mode": "greedy-sup-norm",
        "perm": list(ordering.perm),
        "elements": [list(e) for e in ordering.elements],
        "prefix_sums": [list(p) for p in ordering.prefix_sums],
        "achieved_box": [list(iv) for iv in achieved],
        "achieved_sup": max(
            (max(abs(x) for x in p) for p in ordering.prefix_sums), default=0
        ),
    }
    return EXIT_OK, payload, ["greedy-heuristic"], True, None


def _cmd_bounds(spec: JobSpec):
    group_text = spec.parameters.get("group")
    if group_text and spec.ground:
        raise ValidationError("bounds takes a ground set or --group, not both")
    if group_text:
        report = _bounds.group_davenport(parse_group(group_text))
        subject = {"group": group_text}
    else:
        ground = _require_ground(spec)
        report = _bounds.ground_bounds(ground)
        subject = {"ground": emit_ground_set(ground)}
    payload = {
        **subject,
        "lower": report.lower,
        "upper": report.upper,
        "exact": report.exact,
        "value": report.value,
    }
    return EXIT_OK, payload, list(report.provenance), report.exact, None


def _cmd_construct(spec: JobSpec):
    kind = spec.parameters.get("kind")
    if kind == "two-element":
        s = _constructions.two_element_atom(*_int_params(spec, "x", "y"))
        provenance = ["two-support-atom"]
    elif kind == "interval-max":
        s = _constructions.interval_max_atom(*_int_params(spec, "m", "M"))
        provenance = ["max-interval-atom"]
    elif kind == "hypercube":
        s = _constructions.hypercube_atom(*_int_params(spec, "m", "d"))
        provenance = ["hypercube-construction-lower"]
    elif kind == "group-box":
        s = _constructions.group_box_atom(*_int_params(spec, "n", "m", "d"))
        provenance = ["cyclic-product-cube-lower"]
    else:
        raise ValidationError(f"unknown construction kind {kind!r}")
    payload = {
        "kind": kind,
        "sequence": sequence_to_json(s),
        "length": s.length,
        "certified": _constructions.is_certifiable(s),
    }
    return EXIT_OK, payload, provenance, True, None


def _cmd_classify(spec: JobSpec):
    (m,) = _int_params(spec, "m")
    ground = parse_ground_set(spec.ground) if spec.ground else None
    s = _parse_seq_param(spec, ground)
    if spec.parameters.get("M") is not None:
        verdict = _inverse.classify_interval_max(m, *_int_params(spec, "M"), s)
        which = "interval-max"
    elif s.length == 2 * m - 1:
        verdict = _inverse.classify_symmetric_max(m, s)
        which = "symmetric-max"
    elif s.length == 2 * m - 2:
        verdict = _inverse.classify_symmetric_submax(m, s)
        which = "symmetric-submax"
    else:
        raise ValidationError(
            f"length {s.length} matches no classified family for m={m}"
        )
    payload = {
        "classifier": which,
        "matches": verdict.matches,
        "case": verdict.case.value,
    }
    return EXIT_OK, payload, ["inverse-classification"], True, None


def _parse_range(text: str) -> list[int]:
    """``a..b`` and ``k`` items joined by commas; whitespace is ignored."""
    out = []
    at = 0
    for part in "".join(text.split()).split(","):
        lo, dots, hi = part.partition("..")
        if dots:
            out.extend(range(_number(lo, "range bound", at), _number(hi, "range bound", at) + 1))
        else:
            out.append(_number(part, "range item", at))
        at += len(part) + 1
    return out


def _cmd_verify(spec: JobSpec):
    p = spec.parameters
    do_inverse = bool(p.get("inverse"))
    do_powers = bool(p.get("powers"))
    if not do_inverse and not do_powers:
        raise ValidationError("nothing to verify: pass --inverse and/or --powers")
    checks = []
    ok = True
    if do_inverse:
        ms = _parse_range(p.get("m") or "2..5")
        report = _inverse.verify_inverse(ms, threads=spec.threads)
        ok = ok and report.ok
        for c in report.checks:
            checks.append(
                {
                    "check": c.name,
                    "ok": c.ok,
                    "expected": list(c.expected),
                    "found": list(c.found),
                }
            )
    if do_powers:
        triples = [(2, 1, u) for u in (1, 2, 3)]
        triples += [(3, 1, u) for u in (1, 2)]
        triples += [(2, 2, u) for u in (1, 2)]
        for m, d, u in triples:
            rep = _constructions.power_subsequence_check(m, d, u)
            ok = ok and rep.ok
            checks.append(
                {
                    "check": f"powers m={m} d={d} u={u}",
                    "ok": rep.ok,
                    "expected": list(range(1, u + 1)),
                    "found": rep.zero_sum_subsequences,
                }
            )
    payload = {"ok": ok, "checks": checks}
    code = EXIT_OK if ok else EXIT_CONSISTENCY
    return code, payload, ["exhaustive-enumeration"], ok, None


def _cmd_hunt_chi_gap(spec: JobSpec):
    report = _search.hunt_chi_gap(*_int_params(spec, "abs", "max_size"), threads=spec.threads)
    return EXIT_OK, report, ["exploration"], True, None


_HANDLERS = {
    "davenport": _cmd_davenport,
    "atoms": _cmd_atoms,
    "check-minimal": _cmd_check_minimal,
    "reorder": _cmd_reorder,
    "bounds": _cmd_bounds,
    "construct": _cmd_construct,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "hunt-chi-gap": _cmd_hunt_chi_gap,
}


def run(spec: JobSpec) -> tuple[int, dict]:
    """Dispatch a job and build the full report envelope."""
    if spec.command not in _HANDLERS:
        raise ValidationError(f"unknown command {spec.command!r}")
    if spec.output not in ("json", "csv", "text"):
        raise ValidationError(f"unknown output format {spec.output!r}")
    if spec.output == "csv" and spec.command != "atoms":
        raise ValidationError("csv output is only available for atom lists")
    check_threads(spec.threads)
    code, result, provenance, exact, stats = _HANDLERS[spec.command](spec)
    report = {
        "schema": SCHEMA,
        "command": spec.command,
        "input": {"ground": spec.ground, "parameters": spec.parameters},
        "exact": exact,
        "result": result,
        "provenance": provenance,
    }
    if stats is not None and not spec.no_stats:
        report["stats"] = stats
    return code, report


# ---------------------------------------------------------------------------
# rendering


def _render_text(report: dict) -> str:
    command = report["command"]
    result = report["result"]
    lines = [f"{command}: exact={report['exact']}"]
    if command == "davenport":
        lines.append(f"  value: {result['value']}  bracket: [{result['lower']},{result['upper']}]")
        if result["witness"]:
            lines.append(f"  witness: {result['witness']['text']}")
    elif command == "atoms":
        lines.append(f"  {result['count']} atoms of length {result['length']}")
        for a in result["atoms"]:
            lines.append(f"  {a['text']}")
    elif command == "verify":
        for c in result["checks"]:
            lines.append(f"  {'PASS' if c['ok'] else 'FAIL'}  {c['check']}")
    else:
        lines.append("  " + json.dumps(result))
    lines.append(f"  provenance: {', '.join(report['provenance'])}")
    return "\n".join(lines)


def _render_csv(report: dict) -> str:
    rows = ["length,sequence"]
    for a in report["result"]["atoms"]:
        rows.append(f"{a['length']},{a['text']}")
    return "\n".join(rows)


def render(report: dict, output: str) -> str:
    if output == "json":
        return json.dumps(report, indent=2)
    if output == "csv":
        return _render_csv(report)
    return _render_text(report)


# ---------------------------------------------------------------------------
# argument parsing


def _integer(text: str) -> int:
    """The ``type`` of every numeric option: a number of the grammar."""
    try:
        return _read_number(text, "number")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="davkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd, ground="required"):
        if ground == "required":
            cmd.add_argument("ground", help="ground-set spec, e.g. '[-2,3]' or 'C2x[-1,1]'")
        elif ground == "optional":
            cmd.add_argument("ground", nargs="?", default=None)
        cmd.add_argument("--format", choices=("json", "csv", "text"), default="json")
        cmd.add_argument("--no-stats", action="store_true")
        cmd.add_argument("--threads", type=_integer, default=0, help="0 = auto")
        cmd.add_argument(
            "--emit-spec",
            action="store_true",
            help="print the JobSpec reproducing this run instead of running it",
        )
        return cmd

    c = common(sub.add_parser("davenport", help="exact Davenport constant"))
    c.add_argument("--cap", type=_integer, default=None, help="lower the search depth")

    c = common(sub.add_parser("atoms", help="all atoms of one length"))
    c.add_argument("--length", type=_integer, required=True)

    c = common(sub.add_parser("check-minimal", help="zero-sum and minimality check"), "optional")
    c.add_argument("--seq", required=True)

    c = common(sub.add_parser("reorder", help="prefix-sum reordering"), "optional")
    c.add_argument("--seq", required=True)
    c.add_argument("--seed-element", default=None)

    c = common(sub.add_parser("bounds", help="closed-form bounds"), "optional")
    c.add_argument("--group", default=None, help="group spec, e.g. C2xC4")

    c = common(sub.add_parser("construct", help="extremal sequences"), "none")
    c.add_argument(
        "--kind",
        required=True,
        choices=("two-element", "interval-max", "hypercube", "group-box"),
    )
    c.add_argument("--x", type=_integer)
    c.add_argument("--y", type=_integer)
    c.add_argument("--m", type=_integer)
    c.add_argument("--M", type=_integer)
    c.add_argument("--d", type=_integer)
    c.add_argument("--n", type=_integer)

    c = common(sub.add_parser("classify", help="inverse-structure classification"), "optional")
    c.add_argument("--seq", required=True)
    c.add_argument("--m", type=_integer, required=True)
    c.add_argument("--M", type=_integer, default=None)

    c = common(sub.add_parser("verify", help="exhaustive confirmations"), "none")
    c.add_argument("--inverse", action="store_true")
    c.add_argument("--powers", action="store_true")
    c.add_argument("--m", default=None, help="range, e.g. 2..5")

    c = common(sub.add_parser("hunt-chi-gap", help="search for chi < D examples"), "none")
    c.add_argument("--abs", type=_integer, default=3)
    c.add_argument("--max-size", type=_integer, default=3)

    return parser


# the options every command takes; the rest of a namespace is the
# command's own parameters, in declaration order
_COMMON_KEYS = ("command", "ground", "format", "no_stats", "threads", "emit_spec")


def job_from_args(args: argparse.Namespace) -> JobSpec:
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in _COMMON_KEYS and value is not None and value is not False
    }
    return JobSpec(
        command=args.command,
        ground=getattr(args, "ground", None),
        parameters=params,
        output=args.format,
        no_stats=args.no_stats,
        threads=args.threads,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        spec = job_from_args(args)
        if args.emit_spec:
            code, text = EXIT_OK, json.dumps(spec.to_json(), indent=2)
        else:
            code, report = run(spec)
            text = render(report, spec.output)
        print(text)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GuardExceededError, OverflowGuardError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: stdout goes to devnull, so the
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
