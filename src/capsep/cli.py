"""Command-line front end: every subcommand prints one JSON document.

Exit codes: 0 on success, 2 when a verification fails, 1 on usage errors.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import algebra_fp, alpha, bitgraph, channel, entcert, geometry, report
from .errors import CapsepError, CertificateError, InvalidParameterError
from .hadamard import find_hadamard


# The C encoders json itself uses for plain str, int and (finite) float values
_PLAIN = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__}


def _key(k) -> str:
    """A dict key as json writes it: a str by json's encoder, any other by json's key rule."""
    return encode_basestring_ascii(k) if type(k) is str else json.dumps({k: 0})[1:-4]


def _dumps(obj, level: int = 0) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, without its pure-Python indent
    encoder. Containers are written here and plain scalars by json's C
    encoders; a list of one plain scalar type (a distribution, a clique's
    labels) is one join, and a matrix of plain ints (a certificate operator,
    rho) one ``%`` format. Everything else (NaN, infinities, subclasses,
    values JSON cannot encode) goes to ``json.dumps``, so it keeps json's
    output and errors."""
    t = type(obj)
    if t in _PLAIN and (t is not float or math.isfinite(obj)):
        return _PLAIN[t](obj)
    if obj is None or t is bool:
        return "null" if obj is None else "true" if obj else "false"
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return json.dumps(obj)
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, dict):
        items = (f"{_key(k)}: {_dumps(v, level + 1)}" for k, v in obj.items())
        return f"{{{pad}{(',' + pad).join(items)}{pad[:-2]}}}"
    kinds = set(map(type, obj))
    if kinds == {list} and len(set(map(len, obj))) == 1 and obj[0]:
        flat = tuple(chain.from_iterable(obj))
        if set(map(type, flat)) == {int}:  # %d writes a plain int as int.__repr__ does
            inner = pad + "  "
            row = f"[{inner}{('%d,' + inner) * (len(obj[0]) - 1)}%d{pad}]"
            return f"[{pad}{(',' + pad).join([row] * len(obj))}{pad[:-2]}]" % flat
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _PLAIN and (kind is not float or all(map(math.isfinite, obj))):
        items = map(_PLAIN[kind], obj)
    else:
        items = (_dumps(x, level + 1) for x in obj)
    return f"[{pad}{(',' + pad).join(items)}{pad[:-2]}]"


def _emit(payload, args) -> None:
    text = payload if isinstance(payload, str) else _dumps(payload)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
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


# -- subcommand handlers -------------------------------------------------------


def _cmd_gen_graph(args) -> int:
    g = bitgraph.graph_from_ref(f"{args.family}{args.n}")
    _emit(g.to_dimacs() if args.format == "dimacs" else g.descriptor(), args)
    return 0


def _cmd_hadamard(args) -> int:
    h = find_hadamard(args.size)
    _emit({"size": args.size, "found": False} if h is None
          else {**h.to_json(), "construction": h.construction}, args)
    return 0


def _cmd_orthorep(args) -> int:
    rep = geometry.OrthoRep(bitgraph.graph_from_ref(f"{args.family}{args.n}"))
    rep.verify()
    _emit(rep.to_json(), args)
    return 0


def _cmd_clique(args) -> int:
    clique = geometry.hadamard_clique(_hadamard(args.n), args.family)
    _emit({"graph": f"{args.family}{args.n}", "size": len(clique),
           "vertices": [bitgraph.word_label(b, args.n) for b in clique]}, args)
    return 0


def _cmd_pack(args) -> int:
    _, _, packing = _packing(args.family, args.n, args.seed)
    _emit(packing.to_json(), args)
    return 0


def _cmd_cert(args) -> int:
    _, _, packing = _packing(args.family, args.n, args.seed)
    cert = entcert.cert_from_packing(packing)
    _emit(cert.to_json(), args)
    return 0


def _cmd_verify_cert(args) -> int:
    with open(args.input, "rb") as fh:
        cert = entcert.cert_from_json(fh.read())
    rep = entcert.verify(cert)
    _emit(rep.to_json(), args)
    return 0 if rep.passed else 2


def _cmd_haemers(args) -> int:
    g = bitgraph.graph_from_ref(f"{args.family}{args.n}")
    _emit(algebra_fp.haemers_matrix(g).to_json(), args)
    return 0


def _cmd_alpha(args) -> int:
    g = bitgraph.graph_from_ref("x".join(f[:1].upper() + f[1:] for f in args.graph.split("x")))
    res = alpha.max_independent_set(g, node_budget=args.node_budget)
    _emit(res.to_json(g), args)
    return 0


def _cmd_channel_sim(args) -> int:
    if min(args.seed, args.trials) < 0:
        raise CapsepError("--seed and --trials must be non-negative")
    if args.trials > channel.MAX_TRIALS:
        raise CapsepError(f"--trials {args.trials} is over the cap {channel.MAX_TRIALS}")
    _, g, packing = _packing(args.family, args.n, args.seed)
    proto, proof = channel.protocol_from_packing(packing)
    failures, transcripts = channel.simulate(proto, args.trials,
                                             np.random.default_rng(args.seed).spawn(2))
    _emit({"graph": g.graph_ref(), "M": proto.M, "dim": proto.dim,
           "zero_error": {"passed": proof.passed,
                          "instances": proto.zero_error_instances},
           "trials": args.trials, "failures": failures,
           "transcripts": [tr.to_json() for tr in transcripts]}, args)
    return 0 if failures == 0 else 2


def _cmd_report(args) -> int:
    _emit(report.capacity_report(args.family, args.p).to_json(), args)
    return 0


def _cmd_pipeline(args) -> int:
    family, n = args.family, args.n
    out: dict = {}
    h, g, packing = _packing(family, n, args.seed)
    out["graph"] = g.descriptor()
    out["hadamard"] = {"size": h.size, "construction": h.construction}
    proof = entcert.packing_proof(packing)  # M and dim need no operator stack
    out["packing"] = {"count": packing.count, "target": packing.target,
                      "target_met": packing.target_met}
    out["cert"] = {"M": packing.count, "dim": geometry.OrthoRep(g).dim,
                   "verified": proof.passed, "mode": proof.mode}
    upper = None
    try:
        hm = algebra_fp.haemers_matrix(g)
    except InvalidParameterError as exc:
        out["haemers"] = {"skipped": str(exc)}
    else:
        out["haemers"] = {"p": hm.p, "rank": hm.rank, "source": hm.source,
                          "bound": hm.bound, "fits": True}
        upper = hm.rank
    restricted = geometry.restricted_independent_set(n)
    out["restricted_set"] = {"k": restricted.k, "size": len(restricted),
                             "verified": restricted.verified}
    lower = len(restricted) if restricted.verified else 0
    out["alpha"] = {"lower": lower, "upper": upper}
    p = algebra_fp.instance_prime(n)
    # n + 1 = 4p: the report reads the Hadamard matrix this run already checked
    out["report"] = None if p is None else report.CapacityReport(family, p, h).to_json()
    # alpha* >= M > rank >= Theta, with both ends computed in this run
    out["separation_certified_here"] = upper is not None and packing.count > upper
    _emit(out, args)
    return 0


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
    p.set_defaults(func=_cmd_hadamard)

    p = sub.add_parser("orthorep", help="orthonormal representation")
    common(p, family=("G", "H"), n=True)
    p.set_defaults(func=_cmd_orthorep)

    p = sub.add_parser("clique", help="Hadamard-seeded clique")
    common(p, family=("G", "H"), n=True)
    p.set_defaults(func=_cmd_clique)

    p = sub.add_parser("pack", help="disjoint clique packing")
    common(p, family=("G", "H"), n=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("cert", help="build + verify a packing certificate")
    common(p, family=("G", "H"), n=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cert)

    p = sub.add_parser("verify-cert", help="re-verify a stored certificate")
    common(p)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_verify_cert)

    p = sub.add_parser("haemers", help="fitting matrix: fits check and rank bound mod p")
    common(p, family=("G", "H"), n=True)
    p.set_defaults(func=_cmd_haemers)

    p = sub.add_parser("alpha", help="maximum independent set with bounds")
    common(p)
    p.add_argument("--graph", required=True, help="e.g. C5, G11, H11, O12, C5xC5")
    p.add_argument("--node-budget", type=int, default=10**6)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("channel-sim", help="simulate the one-shot protocol")
    common(p, family=("G", "H"), n=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_channel_sim)

    p = sub.add_parser("report", help="exact capacity-bound arithmetic")
    common(p, family=("G", "H"))
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="full chain for one family member")
    common(p, family=("G", "H"), n=True)
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
    except CertificateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (CapsepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
