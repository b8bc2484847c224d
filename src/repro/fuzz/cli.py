"""``python -m repro.fuzz`` -- the differential fuzzing campaign driver.

Runs ``--programs`` generated programs (starting at ``--start``) through
the full differential harness, interleaving an AES data-path twin check
every ``--aes-every`` programs.  Failures are shrunk with the ddmin
shrinker and persisted as self-contained pytest reproducers under
``--corpus`` (default ``tests/corpus/``).  Exit status is 0 for a clean
sweep, 1 if any divergence survived shrinking, 2 for usage errors.

``--workers`` (or ``REPRO_WORKERS``) fans the sweep out over the trial
harness; per-program RNG streams are forked by index, so the campaign is
bit-deterministic regardless of worker count.  ``--budget`` bounds the
campaign wall clock: no new batch starts after it expires (already
running programs finish).

``--mutate NAME`` installs a deliberate predictor perturbation on the
fast arms (see :mod:`repro.fuzz.mutations`); the mutation-smoke
self-test uses this to prove the fuzzer catches injected bugs.  When a
mutator is active, write reproducers to a scratch ``--corpus`` -- they
encode a deliberate fault and would fail forever in the real corpus.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, List, Optional, Sequence, Tuple

from repro.fuzz import corpus as corpus_mod
from repro.fuzz import mutations
from repro.fuzz.diff import (
    DEFAULT_ORACLE_STRIDE,
    check_aes_data_paths,
    check_program,
    check_program_backends,
)
from repro.fuzz.generator import PROFILES, generate_program
from repro.fuzz.shrink import shrink
from repro.harness.runner import resolve_workers, run_trials
from repro.utils.rng import DeterministicRng

#: Programs per scheduling batch (budget is checked between batches).
BATCH = 32


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _resolve_backends(text: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse ``--backends``: None, 'all', or comma-separated model ids."""
    if text is None:
        return None
    from repro.cpu.model import model_ids, resolve_model

    if text.strip().lower() == "all":
        return tuple(model_ids())
    requested = tuple(part.strip() for part in text.split(",") if part.strip())
    if not requested:
        raise ValueError("--backends given but no model ids parsed")
    for model_id in requested:
        resolve_model(model_id)  # raises on unknown ids
    return requested


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzer for the engine/predictor twins.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--programs", type=_positive_int, default=500,
                        help="number of programs to run (default 500)")
    parser.add_argument("--start", type=int, default=0,
                        help="first program index (default 0)")
    parser.add_argument("--budget", type=float, default=None, metavar="SECS",
                        help="wall-clock budget; stop starting new batches "
                             "after this many seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="use the small 'smoke' generator profile "
                             "(CI-sized programs)")
    parser.add_argument("--gen-profile", choices=sorted(PROFILES),
                        default=None,
                        help="generator profile (overrides --smoke)")
    parser.add_argument("--profile", action="store_true",
                        help="run the campaign under cProfile and dump the "
                             "top 25 functions by cumulative time")
    parser.add_argument("--workers", default=None,
                        help="worker processes (default: REPRO_WORKERS or 1)")
    parser.add_argument("--corpus", default=str(corpus_mod.DEFAULT_CORPUS_DIR),
                        metavar="DIR",
                        help="directory for shrunk pytest reproducers")
    parser.add_argument("--no-corpus", action="store_true",
                        help="report failures without writing reproducers")
    parser.add_argument("--aes-every", type=int, default=25, metavar="N",
                        help="AES data-path twin check every N programs "
                             "(0 disables; default 25)")
    parser.add_argument("--mutate", default=None, metavar="NAME",
                        help="install a named fast-arm mutator "
                             f"(self-test mode; one of {sorted(mutations.MUTATORS)})")
    parser.add_argument("--backends", default=None, metavar="IDS",
                        help="also run the family-generic arms per "
                             "predictor backend: a comma-separated list "
                             "of model ids, or 'all' for every "
                             "registered family")
    parser.add_argument("--oracle-stride", type=int,
                        default=DEFAULT_ORACLE_STRIDE, metavar="N",
                        help="structural invariant walk every N commits "
                             f"(default {DEFAULT_ORACLE_STRIDE})")
    parser.add_argument("--shrink-limit", type=int, default=3, metavar="N",
                        help="shrink at most N failures per campaign "
                             "(default 3)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-batch progress lines")
    return parser


# ----------------------------------------------------------------------
# trial plumbing (module-level for pickling across worker forks)
# ----------------------------------------------------------------------

def _fuzz_setup(spec: dict) -> dict:
    """Per-worker context: just the campaign parameters."""
    return spec


def _fuzz_trial(context: dict, index: int,
                rng: Any) -> Tuple[int, List[str], int]:
    """Check one program (plus its AES interleave).

    Returns ``(index, divergence lines, twin comparisons run)``.

    ``index`` is trial-local; ``context['base']`` shifts it to the
    campaign's absolute program index.  Only string summaries cross the
    process boundary; the parent re-runs the failing program locally to
    shrink and persist it.
    """
    index += context.get("base", 0)
    mutator = mutations.get_mutator(context["mutator"])
    fuzz_program = generate_program(context["seed"], index,
                                    profile=context["profile"])
    divergences = check_program(fuzz_program, machine_mutator=mutator,
                                oracle_stride=context["oracle_stride"])
    backends = context.get("backends")
    if backends:
        divergences += check_program_backends(
            fuzz_program, backends=backends, machine_mutator=mutator,
            oracle_stride=context["oracle_stride"])
    aes_every = context["aes_every"]
    if aes_every and index % aes_every == 0:
        aes_rng = DeterministicRng(context["seed"] ^ 0xAE5).fork(index)
        divergences += check_aes_data_paths(aes_rng)
    return index, [str(d) for d in divergences], divergences.comparisons


def _shrink_and_persist(seed: int, index: int, profile: str,
                        mutator_name: Optional[str], oracle_stride: int,
                        corpus_dir: Optional[str],
                        backends: Optional[Tuple[str, ...]] = None,
                        out=sys.stdout) -> None:
    """Shrink one failing program and (optionally) write its reproducer."""
    mutator = mutations.get_mutator(mutator_name)

    def check_all(candidate) -> List:
        divergences = check_program(candidate, machine_mutator=mutator,
                                    oracle_stride=oracle_stride)
        if backends:
            divergences += check_program_backends(
                candidate, backends=backends, machine_mutator=mutator,
                oracle_stride=oracle_stride)
        return divergences

    def fails(candidate) -> bool:
        return bool(check_all(candidate))

    full = generate_program(seed, index, profile=profile)
    if not fails(full):
        print(f"  program {index}: failure did not reproduce on re-run "
              f"(nondeterminism bug!)", file=out)
        return
    minimal = shrink(full, fails)
    divergences = check_all(minimal)
    print(f"  program {index}: shrunk {len(full.program)} -> "
          f"{len(minimal.program)} instructions "
          f"({len(full.shapes)} -> {len(minimal.shapes)} shapes)", file=out)
    for divergence in divergences:
        print(f"    {divergence}", file=out)
    if corpus_dir is not None:
        case = corpus_mod.FailureCase(
            fuzz_program=minimal, divergences=tuple(divergences),
            mutator=mutator_name,
        )
        path = corpus_mod.write_reproducer(case, directory=corpus_dir)
        print(f"    reproducer: {path}", file=out)


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        workers = resolve_workers(args.workers)
        mutations.get_mutator(args.mutate)  # validate the name up front
        args.backends = _resolve_backends(args.backends)
    except ValueError as exc:
        parser.error(str(exc))
    if not args.profile:
        return _campaign(args, workers, out)
    # cProfile only sees the parent process; profile single-worker runs
    # (the hot paths are identical) for meaningful numbers.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return _campaign(args, workers, out)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=out)
        stats.sort_stats("cumulative").print_stats(25)


def _campaign(args, workers: int, out) -> int:
    profile = args.gen_profile or ("smoke" if args.smoke else "default")
    corpus_dir = None if args.no_corpus else args.corpus

    started = time.perf_counter()
    failures: List[Tuple[int, List[str]]] = []
    done = 0
    comparisons = 0
    budget_hit = False
    indices = list(range(args.start, args.start + args.programs))
    spec = {
        "seed": args.seed,
        "profile": profile,
        "mutator": args.mutate,
        "oracle_stride": args.oracle_stride,
        "aes_every": args.aes_every,
        "backends": args.backends,
    }

    for low in range(0, len(indices), BATCH):
        if args.budget is not None and \
                time.perf_counter() - started > args.budget:
            budget_hit = True
            break
        batch = indices[low:low + BATCH]
        if workers > 1:
            report = run_trials(
                _fuzz_trial, len(batch),
                setup=_fuzz_setup,
                spec={**spec, "base": batch[0]},
                seed=args.seed, workers=workers, on_error="raise",
            )
            results = list(report.values)
        else:
            base_spec = {**spec, "base": 0}
            results = [
                _fuzz_trial(base_spec, index, None) for index in batch
            ]
        for index, lines, compared in results:
            done += 1
            comparisons += compared
            if lines:
                failures.append((index, lines))
        if not args.quiet:
            elapsed = time.perf_counter() - started
            print(f"[{elapsed:6.1f}s] {done}/{len(indices)} programs, "
                  f"{len(failures)} failing", file=out)

    for index, lines in failures:
        print(f"program {index} diverged:", file=out)
        for line in lines:
            print(f"  {line}", file=out)
    for index, _ in failures[:args.shrink_limit]:
        _shrink_and_persist(args.seed, index, profile, args.mutate,
                            args.oracle_stride, corpus_dir,
                            backends=args.backends, out=out)
    if len(failures) > args.shrink_limit:
        print(f"({len(failures) - args.shrink_limit} further failures "
              f"not shrunk; raise --shrink-limit)", file=out)

    elapsed = time.perf_counter() - started
    status = "BUDGET EXHAUSTED" if budget_hit else "complete"
    verdict = "CLEAN" if not failures else f"{len(failures)} FAILING"
    print(f"fuzz {status}: {done} programs, {comparisons} twin comparisons "
          f"in {elapsed:.1f}s (seed {args.seed}, profile {profile}, "
          f"workers {workers}) -- {verdict}", file=out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
