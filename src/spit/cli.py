"""Command-line interface: run, certify, spectra, testbed."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .errors import SpitError
from .harness import (
    RunConfig,
    certify,
    config_from_preset,
    execute_run,
    load_config,
    load_state,
    make_testbed,
    save_state,
    spectra_report,
)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("SPIT_LOG_LEVEL", "error").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="flat key = value config file")
    sub.add_argument("--preset", choices=("stub32", "stub64"), help="built-in testbed config")
    sub.add_argument("--seed", type=int, help="RNG seed override")
    sub.add_argument("--steps", type=int, help="override max_steps")
    sub.add_argument("--out", type=Path, default=None, help="output directory")
    sub.add_argument("--unsafe", action="store_true",
                     help="accept out-of-range configuration values")
    sub.add_argument("--shrink", type=float, metavar="WEIGHT",
                     help="cell-volume descent weight for joint projections")


def _build_config(args) -> RunConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.steps is not None:
        overrides["max_steps"] = args.steps
    if args.shrink is not None:
        # certify re-minimizes volume with its own weight, cert_shrink
        overrides["cert_shrink" if args.command == "certify" else "volume_weight"] = args.shrink
    if args.unsafe:
        overrides["unsafe"] = True
    if args.config is not None:
        return load_config(args.config, **overrides)
    if args.preset is not None:
        return config_from_preset(args.preset, **overrides)
    return RunConfig(**overrides).validate()


def _out_dir(args, config: RunConfig) -> Path:
    return Path(args.out) if args.out is not None else Path(config.out)


def cmd_run(args) -> int:
    config = _build_config(args)
    out = _out_dir(args, config)
    record, summary = execute_run(config, out_dir=out)
    print(f"wrote {out / 'trajectory.csv'} ({len(record.rows)} rows) and "
          f"{out / 'summary.json'}")
    return 0


def cmd_testbed(args) -> int:
    config = _build_config(args)
    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    ds = make_testbed(config)
    path = out / "testbed.json"
    save_state(path, ds, meta={"seed": config.seed, "N": config.N, "n": config.n})
    print(f"wrote {path}")
    return 0


def cmd_certify(args) -> int:
    config = _build_config(args)
    state, _ = load_state(args.state)
    report = certify(config, state)
    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "certification.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=1, default=float) + "\n")
    print(f"wrote {path}")
    for level in report["levels"]:
        print(f"  nu={level['nu']:g}: res_x={level['res_x']:.3e} "
              f"res_B={level['res_B']:.3e} comp={level['comp']:.3e}")
    for conv in ("shift", "literal"):
        entry = report[f"rigidity_{conv}"]
        print(f"  rigidity[{conv}]: rigid={entry['rigid']} "
              f"nontrivial_dim={entry['nontrivial_dim']}")
    return 0


def cmd_spectra(args) -> int:
    config = _build_config(args)
    state, _ = load_state(args.state)
    if args.exact_cheeger and state.N > 20:
        print("error: exact Cheeger limited to small graphs (N <= 20)", file=sys.stderr)
        return 3
    report = spectra_report(state, R=config.R, eps=args.eps,
                            exact_cheeger=True if args.exact_cheeger else None)
    print(f"lambda2 = {report['lambda2']!r}")
    print("fiedler_vector = " + " ".join(f"{c:.6g}" for c in report["fiedler_vector"]))
    if "cheeger" in report:
        ch = report["cheeger"]
        verdict = "ok" if ch["sandwich_ok"] else "VIOLATED"
        print(f"cheeger: h = {ch['h']:.6g}, bounds [{ch['lower']:.6g}, {ch['upper']:.6g}], "
              f"sandwich {verdict}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="spit",
                                     description="Barrier-driven periodic sphere packing")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run a packing trajectory")
    _add_config_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    tb_p = subs.add_parser("testbed", help="generate and save a testbed state")
    _add_config_flags(tb_p)
    tb_p.set_defaults(func=cmd_testbed)

    cert_p = subs.add_parser("certify", help="barrier continuation plus rigidity report")
    cert_p.add_argument("state", type=Path, help="input state JSON")
    _add_config_flags(cert_p)
    cert_p.set_defaults(func=cmd_certify)

    spec_p = subs.add_parser("spectra", help="contact-graph spectrum of a state")
    spec_p.add_argument("state", type=Path, help="input state JSON")
    spec_p.add_argument("--eps", type=float, default=0.05,
                        help="near-contact threshold for graph edges")
    spec_p.add_argument("--exact-cheeger", action="store_true",
                        help="force the exact Cheeger computation")
    _add_config_flags(spec_p)
    spec_p.set_defaults(func=cmd_spectra)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
