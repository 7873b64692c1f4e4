"""Command-line front end: every subcommand prints one JSON document.

Exit codes: 0 on success, 2 when a verification fails, 1 on usage errors.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import algebra_fp, alpha, bitgraph, channel, entcert, geometry, report
from .errors import (CapsepError, CertificateError, ProtocolError,
                     ResourceLimitError)
from .hadamard import find_hadamard


def _emit(payload, args) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _rep_and_clique(family: str, n: int):
    h = find_hadamard(n + 1)
    if h is None:
        raise CapsepError(f"no covered Hadamard construction of size {n + 1}")
    if family == "G":
        return geometry.ortho_rep_G(n), geometry.clique_from_hadamard_G(h)
    return geometry.ortho_rep_H(n), geometry.clique_from_hadamard_H(h)


def _build_cert(family: str, n: int, budget: int, seed: int):
    rep, clique = _rep_and_clique(family, n)
    packing = geometry.pack_cliques(rep.graph, clique, budget=budget, rng_seed=seed)
    return entcert.cert_from_packing(rep, packing), packing


# -- subcommand handlers -------------------------------------------------------


def _cmd_gen_graph(args) -> int:
    g = bitgraph.graph_from_ref(f"{args.family}{args.n}")
    if args.format == "dimacs":
        _emit(g.to_dimacs(), args)
    else:
        _emit(g.descriptor(), args)
    return 0


def _cmd_hadamard(args) -> int:
    h = find_hadamard(args.size)
    if h is None:
        _emit({"size": args.size, "found": False}, args)
        return 0
    if args.format == "text":
        _emit(h.to_text(), args)
    else:
        payload = h.to_json()
        payload["construction"] = h.construction
        _emit(payload, args)
    return 0


def _cmd_orthorep(args) -> int:
    rep = geometry.ortho_rep_G(args.n) if args.family == "G" \
        else geometry.ortho_rep_H(args.n)
    _emit(rep.to_json(), args)
    return 0


def _cmd_clique(args) -> int:
    _, clique = _rep_and_clique(args.family, args.n)
    _emit({"graph": f"{args.family}{args.n}", "size": len(clique),
           "vertices": [bitgraph.word_label(b, args.n) for b in clique]}, args)
    return 0


def _cmd_pack(args) -> int:
    rep, clique = _rep_and_clique(args.family, args.n)
    packing = geometry.pack_cliques(rep.graph, clique, budget=args.budget,
                                    rng_seed=args.seed)
    _emit(packing.to_json(), args)
    return 0


def _cmd_cert(args) -> int:
    cert, _ = _build_cert(args.family, args.n, args.budget, args.seed)
    _emit(cert.to_json(), args)
    return 0 if cert.verification.passed else 2


def _cmd_verify_cert(args) -> int:
    with open(args.input, "rb") as fh:
        cert = entcert.cert_from_json(fh.read())
    rep = entcert.verify(cert)
    _emit(rep.to_json(), args)
    return 0 if rep.passed else 2


def _cmd_haemers(args) -> int:
    g = bitgraph.graph_from_ref(f"{args.family}{args.n}")
    _emit(algebra_fp.haemers_matrix(g, args.p).to_json(), args)
    return 0


def _cmd_alpha(args) -> int:
    g = bitgraph.graph_from_ref("x".join(f[:1].upper() + f[1:] for f in args.graph.split("x")))
    time_budget = args.budget_ms / 1000.0 if args.budget_ms else None
    res = alpha.max_independent_set(g, node_budget=args.node_budget,
                                    time_budget_s=time_budget)
    _emit(res.to_json(g), args)
    return 0


def _cmd_channel_sim(args) -> int:
    cert, _ = _build_cert(args.family, args.n, args.budget, args.seed)
    chan = channel.canonical_channel(cert.graph)
    try:
        proto = channel.protocol_from_cert(cert, chan)
    except ProtocolError as exc:
        _emit({"error": str(exc)}, args)
        return 2
    zr = proto.zero_error_report()
    failures = 0
    transcripts = []
    for trial in range(args.trials):
        tr = channel.simulate_transmission(proto, trial % proto.M + 1, seed=args.seed + trial)
        if not tr.correct:
            failures += 1
        if trial < 20:
            transcripts.append(tr.to_json())
    _emit({"graph": cert.graph_ref, "M": proto.M, "dim": proto.dim,
           "zero_error": zr.to_json(), "trials": args.trials,
           "failures": failures, "transcripts": transcripts}, args)
    return 0 if zr.passed and failures == 0 else 2


def _cmd_report(args) -> int:
    _emit(report.capacity_report(args.family, args.p).to_json(), args)
    return 0


def _cmd_pipeline(args) -> int:
    family, n = args.family, args.n
    out: dict = {}
    g = bitgraph.graph_from_ref(f"{family}{n}")
    out["graph"] = g.descriptor()
    h = find_hadamard(n + 1)
    out["hadamard"] = None if h is None else {"size": h.size,
                                              "construction": h.construction}
    cert, packing = _build_cert(family, n, args.budget, args.seed)
    out["packing"] = {"count": packing.count, "target": packing.target,
                      "target_met": packing.target_met}
    out["cert"] = {"M": cert.M, "dim": cert.dim,
                   "verified": cert.verification.passed,
                   "mode": cert.verification.to_json()["mode"]}
    p = (n + 1) // 4
    upper = None
    if p >= 3 and algebra_fp.is_prime(p) and p % 2 == 1:
        try:
            hm = algebra_fp.haemers_matrix(g, p)
        except ResourceLimitError as exc:
            out["haemers"] = {"skipped": str(exc)}
        else:
            out["haemers"] = {"p": p, "rank": hm.rank, "bound": hm.bound, "fits": True}
            upper = hm.rank
    else:
        out["haemers"] = {"skipped": f"(n+1)/4 = {p} is not an odd prime"}
    restricted = geometry.restricted_independent_set(n)
    out["restricted_set"] = {"k": restricted.k, "size": len(restricted),
                             "verified": restricted.verified}
    lower = len(restricted) if restricted.verified else 0
    out["alpha"] = {"lower": lower, "upper": upper}
    out["report"] = report.capacity_report(family, p).to_json() \
        if algebra_fp.is_prime(p) and p % 2 == 1 else None
    out["separation_certified_here"] = False  # desk-scale n: bounds only
    _emit(out, args)
    return 0 if cert.verification.passed else 2


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="capsep",
                     description="Graph-capacity separation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=None, n=False):
        p.add_argument("--output", help="write JSON here instead of stdout")
        if family:
            p.add_argument("--family", required=True, choices=family)
        if n:
            p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("gen-graph", help="materialize a graph family member")
    common(p, family=("G", "H", "O", "C"), n=True)
    p.add_argument("--format", choices=("json", "dimacs"), default="json")
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("hadamard", help="construct a Hadamard matrix")
    common(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_hadamard)

    p = sub.add_parser("orthorep", help="orthonormal representation")
    common(p, family=("G", "H"), n=True)
    p.set_defaults(func=_cmd_orthorep)

    p = sub.add_parser("clique", help="Hadamard-seeded clique")
    common(p, family=("G", "H"), n=True)
    p.set_defaults(func=_cmd_clique)

    p = sub.add_parser("pack", help="disjoint clique packing")
    common(p, family=("G", "H"), n=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("cert", help="build + verify a packing certificate")
    common(p, family=("G", "H"), n=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cert)

    p = sub.add_parser("verify-cert", help="re-verify a stored certificate")
    common(p)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_verify_cert)

    p = sub.add_parser("haemers", help="fitting matrix and exact rank mod p")
    common(p, family=("G", "H"), n=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_haemers)

    p = sub.add_parser("alpha", help="maximum independent set with bounds")
    common(p)
    p.add_argument("--graph", required=True, help="e.g. C5, G11, H11, O12, C5xC5")
    p.add_argument("--node-budget", type=int, default=10**6)
    p.add_argument("--budget-ms", type=int, default=None)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("channel-sim", help="simulate the one-shot protocol")
    common(p, family=("G", "H"), n=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=_cmd_channel_sim)

    p = sub.add_parser("report", help="exact capacity-bound arithmetic")
    common(p, family=("G", "H"))
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="full chain for one family member")
    common(p, family=("G", "H"), n=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CertificateError, ProtocolError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except CapsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
