"""Command-line surface: KB checking, single-path tools, full runs."""

from __future__ import annotations

import argparse
import io
import os
import sys

from .bayes import build_network, default_cpts, exact_posterior, render_network
from .kb import KbError, load_kb
from .marker import EngineConfig, score_path
from .paths import PathError, parse_path
from .pipeline import RunConfig, SynthParams, run, synth_corpus
from .semantics import relevant_statements, statements_of


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kb", required=True, help="knowledge base file")
    parser.add_argument("--output", default=None, help="output file (default stdout)")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=float, default=EngineConfig.half_threshold,
                        help="half-path cutoff T (default %(default)s)")
    parser.add_argument("--full-threshold", type=float, default=EngineConfig.full_threshold,
                        help="whole-path cutoff (default T*T)")
    parser.add_argument("--max-depth", type=_positive_int, default=EngineConfig.max_depth)
    parser.add_argument("--approval-ratio", type=float, default=RunConfig.approval_ratio)
    _add_gammas(parser)


def _add_gammas(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma1", type=float, default=RunConfig.gamma1,
                        help="interior evidence strength when all equalities hold")
    parser.add_argument("--gamma0", type=float, default=RunConfig.gamma0,
                        help="interior evidence strength otherwise")


def _beliefs(text: str) -> tuple[float, float]:
    try:
        first, second = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated beliefs, got {text!r}") from None
    return first, second


def _read(name: str | None) -> str:
    """The text of file ``name``, or of stdin when None, read as UTF-8
    without the byte-order mark some editors put at its start."""
    if name is None and sys.stdin is None:  # started with fd 0 closed
        raise OSError("standard input is closed")
    with open(sys.stdin.fileno() if name is None else name, encoding="utf-8-sig",
              closefd=name is not None) as fh:
        return fh.read()


def _write_files(files: list[tuple[str, str]]) -> None:
    """Write each (name, text): each text goes to a temporary sibling of
    its file, and the siblings replace their files only once all are
    written, so a failure to write one leaves every file as it was.  A
    failure removes the siblings."""
    temps: list[str] = []
    try:
        for name, text in files:
            temp = f"{name}.{os.getpid()}.tmp"
            with open(temp, "x", encoding="utf-8") as fh:
                temps.append(temp)
                fh.write(text)
        for (name, _), temp in zip(files, temps):
            os.replace(temp, name)
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="load a KB and report invariant results")
    _add_common(p)

    p = sub.add_parser("run", help="full recognition pass over an input stream")
    _add_common(p)
    p.add_argument("--input", default=None, help="stream file (default stdin)")
    _add_config(p)

    for name, description in (("score", "spinal contribution of a path"),
                              ("translate", "statements a path asserts"),
                              ("network", "dump the path's network"),
                              ("eval", "exact posterior of a path")):
        p = sub.add_parser(name, help=description)
        _add_common(p)
        p.add_argument("--path", required=True, help="path literal")
        if name in ("score", "eval"):
            p.add_argument("--beliefs", type=_beliefs, default=(1.0, 1.0),
                           help="start,end beliefs (default 1.0,1.0)")
        else:  # no output of these depends on the end beliefs
            p.set_defaults(beliefs=(1.0, 1.0))
        if name == "eval":
            _add_gammas(p)

    p = sub.add_parser("synth", help="emit a synthetic corpus")
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stories", type=_positive_int, default=SynthParams.n_stories,
                   help="stories to emit (default %(default)s)")
    p.add_argument("--plans", type=_positive_int, default=SynthParams.n_plans,
                   help="plans to plant (default %(default)s)")
    p.add_argument("--density", type=float, default=SynthParams.corroboration_density,
                   help="chance of each corroboration record (default %(default)s)")
    p.add_argument("--out-kb", default=None, help="write the KB here")
    p.add_argument("--out-streams", default=None,
                   help="write one stream file per story under this prefix")
    return parser


def _dispatch(args: argparse.Namespace, out: io.StringIO) -> None:
    if args.command == "synth":
        params = SynthParams(n_plans=args.plans, n_stories=args.stories,
                             corroboration_density=args.density)
        corpus = synth_corpus(args.seed, params)
        files = [] if args.out_kb is None else [(args.out_kb, corpus.kb_text)]
        if args.out_streams is not None:
            files += [(f"{args.out_streams}{i:03d}.stream", stream)
                      for i, stream in enumerate(corpus.streams)]
        _write_files(files)
        if args.out_kb is None and args.out_streams is None:
            out.write(corpus.kb_text)
            for i, stream in enumerate(corpus.streams):
                out.write(f"; ---- stream {i:03d} ----\n")
                out.write(stream)
        return

    kb = load_kb(_read(args.kb))

    if args.command == "check":
        roles = sum(len(s.slots) for s in kb.schemas.values())
        out.write(f"ok: {len(kb.schemas)} schemas, {roles} role links, "
                  f"eq-prior {kb.eq_prior!r}\n")
        return

    if args.command == "run":
        config = RunConfig(
            engine=EngineConfig(half_threshold=args.threshold,
                                full_threshold=args.full_threshold,
                                max_depth=args.max_depth),
            gamma1=args.gamma1, gamma0=args.gamma0,
            approval_ratio=args.approval_ratio)
        out.write(run(kb, config, _read(args.input)).render())
        return

    path = parse_path(kb, args.path, beliefs=args.beliefs)
    if args.command == "score":
        out.write(f"{score_path(kb, path)!r}\n")
    elif args.command == "translate":
        out.write("S(P):\n")
        for statement in statements_of(path):
            out.write(f"  {statement}\n")
        out.write("RS(P):\n")
        for statement in relevant_statements(path).statements:
            out.write(f"  {statement}\n")
    elif args.command == "network":
        network = build_network(kb, path, relevant_statements(path))
        out.write(render_network(network))
    else:  # eval
        config = RunConfig(gamma1=args.gamma1, gamma0=args.gamma0)
        network = build_network(kb, path, relevant_statements(path))
        cpts = default_cpts(kb, network, config.gamma1, config.gamma0)
        joint, residual = exact_posterior(network, cpts)
        out.write(f"posterior {joint!r}\n")
        out.write(f"residual {residual!r}\n")
        out.write(f"sc {score_path(kb, path)!r}\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # synth writes either one --output or the --out-kb and --out-streams files.
    if args.command == "synth" and args.output is not None:
        for flag, value in (("--out-kb", args.out_kb), ("--out-streams", args.out_streams)):
            if value is not None:
                parser.error(f"argument --output: not allowed with argument {flag}")
    out = io.StringIO()  # --output is opened only once the command succeeds
    try:
        _dispatch(args, out)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        else:
            sys.stdout.write(out.getvalue())
    except (KbError, PathError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
