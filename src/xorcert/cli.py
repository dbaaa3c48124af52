"""Command-line pipeline: generation, reduction, refutation, avoidance, and
brute-force auditing.

Exit codes: 0 = certified / succeeded, 2 = honest negative (uncertain or
budget exhausted), 1 = usage or I/O error. Log lines go to stderr only;
artifacts are deterministic given inputs and seed.

Sign strings on the command line use the global bit convention: character i
of a 0/1 string is bit i, with 0 meaning +1.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

from . import circuits, core, oracle, prg, reduction, refuter
from .avoid import AvoidParams, CertifyParams, avoid as run_avoid
from .core import Dyadic, ValidationError

log = logging.getLogger("xorcert")


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _signs_from_bits(text: str) -> tuple[int, ...]:
    if any(ch not in "01" for ch in text):
        raise CliError(f"expected a 0/1 string, got {text!r}")
    return tuple(core.sign_of_bit(int(ch)) for ch in text)


def _bits_from_signs(signs) -> str:
    return "".join(str(core.bit_of_sign(s)) for s in signs)


def _symbols_from_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"expected comma-separated symbols, got {text!r}") from exc


def _fraction_from_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"expected a fraction, got {text!r}") from exc


def _write(path: str | None, text: str) -> None:
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")
        log.info("wrote %s", path)


def _read(path: str) -> str:
    return Path(path).read_text()


def _refute_params(args) -> refuter.RefuteParams:
    if args.params is not None:
        return refuter.RefuteParams.from_obj(core.parse_json(_read(args.params), "params"))
    return refuter.RefuteParams(
        r=args.r,
        ell=args.ell,
        mode=args.mode,
        dense_cap=args.dense_cap,
        work_flops=args.work_flops,
        split_weights=args.split_weights,
    )


def _add_refute_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, default=None, help="Kikuchi level (default k/2)")
    p.add_argument("--ell", type=int, default=None,
                   help="trace power, mode trace only (default 2*ceil(r*ln n))")
    p.add_argument("--mode", choices=("trace", "spectral", "auto"), default="auto",
                   help="certificate engine; auto runs the spectral one")
    p.add_argument("--dense-cap", type=int, default=refuter.RefuteParams.dense_cap)
    p.add_argument("--work-flops", type=float, default=refuter.RefuteParams.work_flops)
    p.add_argument("--split-weights", action="store_true",
                   help="count each weight num*2^-L as |num| unit copies and rescale: "
                        "a different bound, tighter or looser than the default")
    p.add_argument("--params", default=None,
                   help="JSON file overriding all certification knobs")


def _cmd_gen_circuit(args) -> int:
    # checked before sampling: junta gates read t of the n inputs, parity gates 1 to t
    low_t = 1 if args.kind == "parity" else 0
    bad_t = args.t < low_t or (args.kind != "tree" and args.t > args.n)
    if min(args.n, args.w) < 1 or args.m < 0 or bad_t:
        raise ValidationError(
            [f"no {args.kind} circuit with n={args.n}, w={args.w}, t={args.t}, m={args.m}"]
        )
    rng = random.Random(args.seed)
    if args.kind == "junta":
        c = circuits.random_junta_circuit(rng, args.n, args.t, args.m)
    elif args.kind == "tree":
        c = circuits.random_tree_circuit(
            rng, args.n, args.w, args.t, args.m, leaf_prob=args.leaf_prob
        )
    else:
        c = circuits.random_parity_circuit(rng, args.n, args.t, args.m)
    _write(args.out, circuits.circuit_to_json(c))
    return 0


def _cmd_gen_instance(args) -> int:
    # checked before sampling: each edge takes k distinct vertices of the n
    if min(args.n, args.k, args.m) < 0 or args.k > args.n:
        raise ValidationError([f"no {args.k}-XOR instance with n={args.n}, m={args.m}"])
    rng = random.Random(args.seed)
    edges = [tuple(sorted(rng.sample(range(args.n), args.k))) for _ in range(args.m)]
    rhs = [rng.choice((1, -1)) for _ in range(args.m)]
    weights = None
    if args.weighted:
        weights = [Dyadic(rng.randint(-8, 8), 3) for _ in range(args.m)]
    inst = core.make_instance(args.n, edges, rhs, weights=weights)
    _write(args.out, core.instance_to_json(inst))
    return 0


def _cmd_gen_prg(args) -> int:
    spec = prg.parse_spec(args.spec)
    if args.enumerate is not None:
        if args.enumerate < 0:
            raise CliError(f"--enumerate must be at least 0, got {args.enumerate}")
        seeds = islice(prg.seed_order(spec), args.enumerate)
    else:
        seeds = [args.seed_int]
    lines = []
    for seed in seeds:
        lines.append(_bits_from_signs(prg.sample_int(spec, seed)))
    _write(args.out, "\n".join(lines))
    log.info("spec %s, seed bits %d", prg.format_spec(spec), spec.seed_bits)
    return 0


def _cmd_reduce(args) -> int:
    c = circuits.circuit_from_json(_read(args.circuit))
    ens = reduction.group_characters(circuits.to_layered(c.with_tree_gates()))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for key in ens.keys():
        scheme = ens.schemes[key]
        inst = core.XorInstance(scheme, tuple([1] * scheme.m))
        name = reduction.key_filename(key)
        (out_dir / name).write_text(core.instance_to_json(inst) + "\n")
        index.append(
            {
                "beta": list(key[0]),
                "slot": key[1],
                "arity": ens.key_arity(key),
                "file": name,
            }
        )
    (out_dir / "index.json").write_text(json.dumps({"keys": index}) + "\n")
    log.info("wrote %d schemes to %s", len(index), out_dir)
    return 0


def _cmd_refute(args) -> int:
    inst = core.instance_from_json(_read(args.instance))
    cert = refuter.refute(inst, _refute_params(args))
    _write(args.out, cert.to_json())
    return 0 if cert.certified else 2


def _cmd_avoid(args) -> int:
    c = circuits.circuit_from_json(_read(args.circuit))
    if args.subexp:
        if args.r is None:
            raise CliError("--subexp requires --r")
        ell = refuter.default_ell(args.r, c.n)
        gen = prg.GeneratorSpec.kwise(ell, c.m)
        log.info("subexponential mode: kwise generator at independence %d", ell)
    else:
        gen = prg.parse_spec(args.gen)
    eps = _fraction_from_arg(args.eps) if args.eps is not None else None
    params = AvoidParams(
        budget=args.budget,
        certify=CertifyParams(eps=eps, refute=_refute_params(args)),
        wall_clock_s=args.wall_clock,
    )
    start = time.monotonic()
    result = run_avoid(c, gen, params)
    elapsed = time.monotonic() - start
    log.info("avoid finished in %.3fs after %d seeds", elapsed, result.seeds_tried)
    wall = elapsed if args.timing else None
    _write(args.out, result.to_json(wall))
    return 0 if result.succeeded else 2


def _cmd_oracle(args) -> int:
    if args.oracle_cmd == "val":
        inst = core.instance_from_json(_read(args.instance))
        val = oracle.brute_val(inst)
        _write(args.out, json.dumps({"val": [val.numerator, val.denominator]}))
    elif args.oracle_cmd == "member":
        c = circuits.circuit_from_json(_read(args.circuit))
        member = oracle.brute_range_member(c, _signs_from_bits(args.y))
        _write(args.out, json.dumps({"member": member}))
    elif args.oracle_cmd == "distance":
        c = circuits.circuit_from_json(_read(args.circuit))
        dist = oracle.brute_min_distance(c, _signs_from_bits(args.b))
        _write(args.out, json.dumps({"distance": [dist.numerator, dist.denominator]}))
    elif args.oracle_cmd == "bias":
        spec = prg.parse_spec(args.spec)
        bias = oracle.brute_bias(spec)
        _write(args.out, json.dumps({"bias": [bias.numerator, bias.denominator]}))
    elif args.oracle_cmd == "independence":
        spec = prg.parse_spec(args.spec)
        dev = oracle.brute_independence(spec, args.k)
        _write(args.out, json.dumps({"deviation": [dev.numerator, dev.denominator]}))
    else:  # decomp
        c = circuits.circuit_from_json(_read(args.circuit))
        res = oracle.check_decomposition(
            c, _symbols_from_arg(args.x), _signs_from_bits(args.b)
        )
        _write(args.out, json.dumps({"residual": [res.numerator, res.denominator]}))
    return 0


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--verbose", action="store_true", help="info logging to stderr")
    parser = _Parser(prog="xorcert", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_parser(owner, name, **kwargs):
        return owner.add_parser(name, parents=[common], **kwargs)

    p_gen = add_parser(sub, "gen", help="generate circuits or instances")
    gen_sub = p_gen.add_subparsers(dest="gen_cmd", required=True)
    pc = add_parser(gen_sub, "circuit")
    pc.add_argument("--kind", choices=("junta", "tree", "parity"), default="junta")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--w", type=int, default=1)
    pc.add_argument("--t", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--leaf-prob", type=float, default=0.2)
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=_cmd_gen_circuit)
    pi = add_parser(gen_sub, "instance")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--k", type=int, required=True)
    pi.add_argument("--m", type=int, required=True)
    pi.add_argument("--weighted", action="store_true")
    pi.add_argument("--seed", type=int, required=True)
    pi.add_argument("--out", default=None)
    pi.set_defaults(func=_cmd_gen_instance)

    pp = add_parser(sub, "gen-prg", help="sample explicit generators")
    pp.add_argument("--spec", required=True, help="e.g. kwise:k=8,m=1024,s=10")
    pp.add_argument("--seed-int", type=int, default=0)
    pp.add_argument("--enumerate", type=int, default=None,
                    help="emit the first N seeds, in the order avoid tries them")
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=_cmd_gen_prg)

    pr = add_parser(sub, "reduce", help="dump the XOR scheme ensemble of a circuit")
    pr.add_argument("--circuit", required=True)
    pr.add_argument("--out-dir", required=True)
    pr.set_defaults(func=_cmd_reduce)

    pf = add_parser(sub, "refute", help="certify an upper bound on an instance value")
    pf.add_argument("--instance", required=True)
    _add_refute_flags(pf)
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=_cmd_refute)

    pa = add_parser(sub, "avoid", help="find a string outside the range of a circuit")
    pa.add_argument("--circuit", required=True)
    pa.add_argument("--gen", default=None, help="generator spec string")
    pa.add_argument("--budget", type=int, default=256)
    pa.add_argument("--eps", default=None, help="remoteness parameter (fraction)")
    pa.add_argument("--subexp", action="store_true", help="kwise generator at the level-r independence")
    pa.add_argument(
        "--wall-clock", type=float, default=None,
        help="seconds after which no further seed is started",
    )
    pa.add_argument("--timing", action="store_true", help="include wall_time in the artifact")
    _add_refute_flags(pa)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=_cmd_avoid)

    po = add_parser(sub, "oracle", help="brute-force ground truth")
    orc = po.add_subparsers(dest="oracle_cmd", required=True)
    ov = add_parser(orc, "val")
    ov.add_argument("--instance", required=True)
    om = add_parser(orc, "member")
    om.add_argument("--circuit", required=True)
    om.add_argument("--y", required=True)
    od = add_parser(orc, "distance")
    od.add_argument("--circuit", required=True)
    od.add_argument("--b", required=True)
    ob = add_parser(orc, "bias")
    ob.add_argument("--spec", required=True)
    oi = add_parser(orc, "independence")
    oi.add_argument("--spec", required=True)
    oi.add_argument("--k", type=int, required=True)
    oc = add_parser(orc, "decomp")
    oc.add_argument("--circuit", required=True)
    oc.add_argument("--x", required=True, help="comma-separated input symbols")
    oc.add_argument("--b", required=True)
    for p in (ov, om, od, ob, oi, oc):
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.INFO)
        if getattr(args, "cmd", None) == "avoid" and not args.subexp and args.gen is None:
            raise CliError("avoid requires --gen or --subexp")
        return args.func(args)
    except CliError as exc:
        log.error("usage error: %s", exc)
        return 1
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
