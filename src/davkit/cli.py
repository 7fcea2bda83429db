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
    sequence_to_json,
)

SCHEMA = "davkit/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_CONSISTENCY = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer killed by it


def _stats_json(stats: _search.SearchStats) -> dict:
    return {
        "nodes": stats.nodes,
        "prunes": stats.prunes,
        "closures": stats.closures,
        "elapsed_s": round(stats.elapsed, 6),
    }


def _print_progress(nodes: int, best: int) -> None:
    print(f"progress: nodes={nodes} best={best}", file=sys.stderr, flush=True)


def _int_params(p: dict, *names: str) -> list[int]:
    """The named parameters, ints as the parser read them; ValidationError
    if one is missing or, in a job built by hand, is not an int."""
    values = [p.get(name) for name in names]
    for name, value in zip(names, values):
        if value is None:
            raise ValidationError(f"missing --{name}")
        if type(value) is not int:
            raise ValidationError(f"--{name} must be an integer, got {value!r}")
    return values


def _read_number(text: str, what: str, pos: int | None = None) -> int:
    """A number of the grammar, whitespace ignored as in a ground set."""
    return _number("".join(text.split()), what, pos)


def _parse_seq_param(p: dict, ground: GroundSet | None) -> Sequence:
    text = p.get("seq")
    if text is None:
        raise ValidationError("missing --seq")
    group = ground.group if isinstance(ground, GroupProduct) else None
    s = parse_sequence(text, group=group)
    if ground is not None:
        for e, _ in s.entries:
            if not contains_element(ground, e):
                raise ValidationError(f"element {e} is not in {emit_ground_set(ground)}")
    return s


# ---------------------------------------------------------------------------
# command handlers: each takes (parameters, ground set or None, threads) and
# returns (exit_code, result, provenance, exact, stats)


def _cmd_davenport(p: dict, ground: GroundSet, threads: int):
    result = _search.davenport(ground, cap=p.get("cap"), threads=threads, progress=_print_progress)
    payload = {
        "value": result.lower if result.exact else None,
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "witness": sequence_to_json(result.witness) if result.witness else None,
    }
    return EXIT_OK, payload, list(result.provenance), result.exact, _stats_json(result.stats)


def _cmd_atoms(p: dict, ground: GroundSet, threads: int):
    (length,) = _int_params(p, "length")
    atoms = _search.atoms_of_length(ground, length, threads=threads)
    payload = {
        "length": length,
        "count": len(atoms),
        "atoms": [sequence_to_json(a) for a in atoms],
    }
    return EXIT_OK, payload, ["exhaustive-search"], True, None


def _cmd_check_minimal(p: dict, ground: GroundSet | None, threads: int):
    s = _parse_seq_param(p, ground)
    zero = _zerosum.is_zero_sum(s)
    witness = _zerosum.find_proper_zero_subsum(s) if zero else None
    payload = {
        "sequence": sequence_to_json(s),
        "zero_sum": zero,
        "minimal": zero and witness is None,
        "witness": sequence_to_json(witness.sub) if witness else None,
    }
    return EXIT_OK, payload, ["reachable-sum-dp"], True, None


def _cmd_reorder(p: dict, ground: GroundSet | None, threads: int):
    s = _parse_seq_param(p, ground)
    if s.dim == 1 and not s.is_mixed:
        flat = [e.coords[0] for e in s.flatten()]
        if (seed_text := p.get("seed_element")) is not None:
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


def _cmd_bounds(p: dict, ground: GroundSet | None, threads: int):
    group_text = p.get("group")
    if group_text is not None and ground is not None:
        raise ValidationError("bounds takes a ground set or --group, not both")
    if group_text is not None:
        report = _bounds.group_davenport(parse_group(group_text))
        subject = {"group": group_text}
    elif ground is None:
        raise ValidationError("command 'bounds' needs a ground set")
    else:
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


# construction kind -> (the name of its function in davkit.constructions,
# looked up on use so that the module runs only for construct; the
# function's parameters; provenance)
_CONSTRUCTIONS = {
    "two-element": ("two_element_atom", ("x", "y"), "two-support-atom"),
    "interval-max": ("interval_max_atom", ("m", "M"), "max-interval-atom"),
    "hypercube": ("hypercube_atom", ("m", "d"), "hypercube-construction-lower"),
    "group-box": ("group_box_atom", ("n", "m", "d"), "cyclic-product-cube-lower"),
}


def _cmd_construct(p: dict, ground: None, threads: int):
    kind = p.get("kind")
    if type(kind) is not str or kind not in _CONSTRUCTIONS:  # a job's JSON may hold a list
        raise ValidationError(f"unknown construction kind {kind!r}")
    function, names, provenance = _CONSTRUCTIONS[kind]
    s = getattr(_constructions, function)(*_int_params(p, *names))
    payload = {
        "kind": kind,
        "sequence": sequence_to_json(s),
        "length": s.length,
        "certified": _constructions.is_certifiable(s),
    }
    return EXIT_OK, payload, [provenance], True, None


def _cmd_classify(p: dict, ground: GroundSet | None, threads: int):
    (m,) = _int_params(p, "m")
    s = _parse_seq_param(p, ground)
    if p.get("M") is not None:
        verdict = _inverse.classify_interval_max(m, *_int_params(p, "M"), s)
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


def _cmd_verify(p: dict, ground: None, threads: int):
    do_inverse = bool(p.get("inverse"))
    do_powers = bool(p.get("powers"))
    if not do_inverse and not do_powers:
        raise ValidationError("nothing to verify: pass --inverse and/or --powers")
    checks = []
    ok = True
    if do_inverse:
        m = p.get("m")
        report = _inverse.verify_inverse(_parse_range("2..5" if m is None else m), threads=threads)
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


def _cmd_hunt_chi_gap(p: dict, ground: None, threads: int):
    report = _search.hunt_chi_gap(*_int_params(p, "abs", "max_size"), threads=threads)
    return EXIT_OK, report, ["exploration"], True, None


# ---------------------------------------------------------------------------
# the command table


def _integer(text: str) -> int:
    """The ``type`` of every numeric option: a number of the grammar."""
    try:
        return _read_number(text, "number")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_INT = {"type": _integer}
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": _integer, "required": True}
_FLAG = {"action": "store_true"}

# name -> (handler, help line, ground set: "required", "optional" or "none",
# own options).  The options map a dest to its add_argument keywords; the
# flag is --dest, "_" written "-".  A job's parameters are the options
# given, in this order.
COMMANDS = {
    "davenport": (
        _cmd_davenport, "exact Davenport constant", "required",
        {"cap": {**_INT, "help": "lower the search depth"}},
    ),
    "atoms": (_cmd_atoms, "all atoms of one length", "required", {"length": _REQUIRED_INT}),
    "check-minimal": (
        _cmd_check_minimal, "zero-sum and minimality check", "optional", {"seq": _REQUIRED},
    ),
    "reorder": (
        _cmd_reorder, "prefix-sum reordering", "optional", {"seq": _REQUIRED, "seed_element": {}},
    ),
    "bounds": (
        _cmd_bounds, "closed-form bounds", "optional",
        {"group": {"help": "group spec, e.g. C2xC4"}},
    ),
    "construct": (
        _cmd_construct, "extremal sequences", "none",
        {
            "kind": {**_REQUIRED, "choices": tuple(_CONSTRUCTIONS)},
            **dict.fromkeys(("x", "y", "m", "M", "d", "n"), _INT),
        },
    ),
    "classify": (
        _cmd_classify, "inverse-structure classification", "optional",
        {"seq": _REQUIRED, "m": _REQUIRED_INT, "M": _INT},
    ),
    "verify": (
        _cmd_verify, "exhaustive confirmations", "none",
        {"inverse": _FLAG, "powers": _FLAG, "m": {"help": "range, e.g. 2..5"}},
    ),
    "hunt-chi-gap": (
        _cmd_hunt_chi_gap, "search for chi < D examples", "none",
        {"abs": {**_INT, "default": 3}, "max_size": {**_INT, "default": 3}},
    ),
}


def run(job: dict) -> tuple[int, dict]:
    """Run a job and build the full report envelope.

    A job is the JSON object that ``--emit-spec`` prints.  Only its
    ``command`` is required: ``ground`` defaults to None, ``parameters``
    to {}, ``output`` to "json", ``no_stats`` to false and ``threads`` to
    0 (auto).  The job itself is not changed."""
    command = job.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    output = job.get("output", "json")
    if output not in ("json", "csv", "text"):
        raise ValidationError(f"unknown output format {output!r}")
    if output == "csv" and command != "atoms":
        raise ValidationError("csv output is only available for atom lists")
    threads = job.get("threads", 0)
    check_threads(threads)
    handler, _, takes_ground, _ = COMMANDS[command]
    text = job.get("ground")
    if text is None and takes_ground == "required":
        raise ValidationError(f"command {command!r} needs a ground set")
    ground = None if text is None or takes_ground == "none" else parse_ground_set(text)
    parameters = dict(job.get("parameters") or {})
    code, result, provenance, exact, stats = handler(parameters, ground, threads)
    report = {
        "schema": SCHEMA,
        "command": command,
        "input": {"ground": text, "parameters": parameters},
        "exact": exact,
        "result": result,
        "provenance": provenance,
    }
    if stats is not None and not job.get("no_stats"):
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser(command: str | None) -> _Parser:
    """The parser of every command's name and help line, with the options
    of ``command`` alone: a process runs one command."""
    parser = _Parser(prog="davkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, takes_ground, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        if name != command:
            continue
        if takes_ground == "required":
            cmd.add_argument("ground", help="ground-set spec, e.g. '[-2,3]' or 'C2x[-1,1]'")
        elif takes_ground == "optional":
            cmd.add_argument("ground", nargs="?", default=None)
        cmd.add_argument("--format", choices=("json", "csv", "text"), default="json")
        cmd.add_argument("--no-stats", action="store_true")
        cmd.add_argument("--threads", type=_integer, default=0, help="0 = auto")
        cmd.add_argument(
            "--emit-spec",
            action="store_true",
            help="print the job (JSON) reproducing this run instead of running it",
        )
        for dest, keywords in options.items():
            cmd.add_argument("--" + dest.replace("_", "-"), **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # davkit itself takes no option but --help, so the first word that
        # is not an option names the command
        command = next((word for word in argv if not word.startswith("-")), None)
        args = vars(_build_parser(command).parse_args(argv))
        _, _, _, options = COMMANDS[args["command"]]
        job = {
            "schema": SCHEMA,
            "command": args["command"],
            "ground": args.get("ground"),
            "parameters": {
                dest: value
                for dest in options
                if (value := args[dest]) is not None and value is not False
            },
            "output": args["format"],
            "no_stats": args["no_stats"],
            "threads": args["threads"],
        }
        if args["emit_spec"]:
            code, text = EXIT_OK, json.dumps(job, indent=2)
        else:
            code, report = run(job)
            text = render(report, job["output"])
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
