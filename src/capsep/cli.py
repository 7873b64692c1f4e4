"""Command-line front end: every subcommand's handler returns one JSON
document, built from one graph, and ``cli_main`` prints it (or writes it to
``--output``).

Exit codes: 0 on success, 2 when a verification fails, 1 on usage errors.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import algebra_fp, alpha, bitgraph, channel, entcert, geometry, report
from .errors import CapsepError, CertificateError, InvalidParameterError
from .hadamard import find_hadamard


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            print(text, file=fh)
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left: drop the rest, keep the verdict
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _hadamard(n: int):
    h = find_hadamard(n + 1)
    if h is None:
        raise CapsepError(f"no covered Hadamard construction of size {n + 1}")
    return h


def _packing(family: str, n: int, seed: int):
    """The Hadamard matrix, the graph (built once, and before the clique so
    that a bad n is named by the graph) and its seeded clique packing."""
    h = _hadamard(n)
    g = bitgraph.graph_from_ref(f"{family}{n}")
    return h, g, geometry.pack_cliques(g, geometry.hadamard_clique(h, family), rng_seed=seed)


# -- subcommand handlers: each returns the one document cli_main prints ------


def _cmd_gen_graph(args) -> dict:
    return bitgraph.graph_from_ref(f"{args.family}{args.n}").descriptor()


def _cmd_hadamard(args) -> dict:
    h = find_hadamard(args.size)
    return ({"size": args.size, "found": False} if h is None
            else {**h.to_json(), "construction": h.construction})


def _cmd_orthorep(args) -> dict:
    rep = geometry.OrthoRep(bitgraph.graph_from_ref(f"{args.family}{args.n}"))
    rep.verify()
    return rep.to_json()


def _cmd_clique(args) -> dict:
    clique = geometry.hadamard_clique(_hadamard(args.n), args.family)
    return {"graph": f"{args.family}{args.n}", "size": len(clique),
            "vertices": [bitgraph.word_label(b, args.n) for b in clique]}


def _cmd_pack(args) -> dict:
    _, _, packing = _packing(args.family, args.n, args.seed)
    return packing.to_json()


def _cmd_cert(args) -> dict:
    _, g, packing = _packing(args.family, args.n, args.seed)
    m, dim = entcert.packing_proof(packing)  # the cliques fix every operator: none is formed
    return {"graph": g.graph_ref(), "M": m, "dim": dim,
            "cliques": packing.to_json()["cliques"], "verification": entcert.PACKING_REPORT}


def _cmd_verify_cert(args) -> dict:
    with open(args.input, "rb") as fh:
        entcert.verify_json(fh.read())
    return entcert.PACKING_REPORT


def _cmd_haemers(args) -> dict:
    return algebra_fp.haemers_matrix(bitgraph.graph_from_ref(f"{args.family}{args.n}")).to_json()


def _cmd_alpha(args) -> dict:
    g = bitgraph.graph_from_ref("x".join(f[:1].upper() + f[1:] for f in args.graph.split("x")))
    return alpha.max_independent_set(g, node_budget=args.node_budget).to_json(g)


def _cmd_channel_sim(args) -> dict:
    if min(args.seed, args.trials) < 0:
        raise CapsepError("--seed and --trials must be non-negative")
    if args.trials > channel.MAX_TRIALS:
        raise CapsepError(f"--trials {args.trials} is over the cap {channel.MAX_TRIALS}")
    _, g, packing = _packing(args.family, args.n, args.seed)
    proto = channel.protocol_from_packing(packing)  # a failed proof raises
    # the first 20 trials of a run are a run of 20: draw only those printed
    transcripts = channel.simulate(proto, min(args.trials, 20),
                                   np.random.default_rng(args.seed).spawn(2))
    # the proof decodes every trial: no failure, like no zero-error violation
    return {"graph": g.graph_ref(), "M": proto.M, "dim": proto.dim,
            "zero_error": {"passed": True, "instances": proto.zero_error_instances},
            "trials": args.trials, "failures": 0, "transcripts": transcripts}


def _cmd_report(args) -> dict:
    return report.capacity_report(args.family, args.p).to_json()


def _cmd_pipeline(args) -> dict:
    family, n = args.family, args.n
    out: dict = {}
    h, g, packing = _packing(family, n, args.seed)
    out["graph"] = g.descriptor()
    out["hadamard"] = {"size": h.size, "construction": h.construction}
    m, dim = entcert.packing_proof(packing)  # no operator stack; a failure raises
    out["packing"] = {"count": m, "target": packing.target, "target_met": packing.target_met}
    out["cert"] = {"M": m, "dim": dim, "verified": True, "mode": "packing"}
    upper = None
    try:
        hm = algebra_fp.haemers_matrix(g)
    except InvalidParameterError as exc:
        out["haemers"] = {"skipped": str(exc)}
    else:
        out["haemers"] = {"p": hm.p, "rank": hm.rank, "source": hm.source,
                          "bound": hm.bound, "fits": True}
        upper = hm.rank
    k, restricted = geometry.restricted_independent_set(g)  # proved on g, or it raises
    out["restricted_set"] = {"k": k, "size": len(restricted), "verified": True}
    out["alpha"] = {"lower": len(restricted), "upper": upper}
    p = algebra_fp.instance_prime(n)
    # n + 1 = 4p: the report reads the Hadamard matrix this run already checked
    out["report"] = None if p is None else report.CapacityReport(family, p, h).to_json()
    # alpha* >= M > rank >= Theta, with both ends computed in this run
    out["separation_certified_here"] = upper is not None and m > upper
    return out


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


_GH = ("G", "H")
_INT = {"type": int, "required": True}
_SEED = {"--seed": {"type": int, "default": 0}}

# name: (help, handler, --family choices or None, takes --n, other options)
COMMANDS = {
    "gen-graph": ("materialize a graph family member", _cmd_gen_graph, ("G", "H", "O", "C"),
                  True, {}),
    "hadamard": ("construct a Hadamard matrix", _cmd_hadamard, None, False, {"--size": _INT}),
    "orthorep": ("orthonormal representation", _cmd_orthorep, _GH, True, {}),
    "clique": ("Hadamard-seeded clique", _cmd_clique, _GH, True, {}),
    "pack": ("disjoint clique packing", _cmd_pack, _GH, True, _SEED),
    "cert": ("build + verify a packing certificate", _cmd_cert, _GH, True, _SEED),
    "verify-cert": ("re-verify a stored certificate", _cmd_verify_cert, None, False,
                    {"--input": {"required": True}}),
    "haemers": ("fitting matrix: fits check and rank bound mod p", _cmd_haemers, _GH, True, {}),
    "alpha": ("maximum independent set with bounds", _cmd_alpha, None, False,
              {"--graph": {"required": True, "help": "e.g. C5, G11, H11, O12, C5xC5"},
               "--node-budget": {"type": int, "default": 10**6}}),
    "channel-sim": ("simulate the one-shot protocol", _cmd_channel_sim, _GH, True,
                    {"--trials": {"type": int, "default": 100}, **_SEED}),
    "report": ("exact capacity-bound arithmetic", _cmd_report, _GH, False, {"--p": _INT}),
    "pipeline": ("full chain for one family member", _cmd_pipeline, _GH, True, _SEED),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand in COMMANDS, or of ``command`` alone."""
    parser = _Parser(prog="capsep", description="Graph-capacity separation toolkit")
    # one command's parser names them all, so its top-level usage is the full one's
    metavar = {} if command is None else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    for name in COMMANDS if command is None else [command]:
        help_, func, family, n, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.add_argument("--output", help="write JSON here instead of stdout")
        if family:
            p.add_argument("--family", required=True, choices=family)
        if n:
            p.add_argument("--n", type=int, required=True)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    # a call runs one subcommand: build only its parser. Help, no argument and
    # unknown commands go to the full parser, which lists every command
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(args.func(args), args)
    except CertificateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (CapsepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
