"""Command-line interface: ``mantle-sim``.

Mirrors the paper's operational flow (``ceph tell mds.* injectargs ...``)
against the simulated cluster:

* ``mantle-sim policies`` — list the stock policies;
* ``mantle-sim show <policy>`` — print a policy as a ``.lua`` policy file;
* ``mantle-sim validate <policy-or-file>`` — pre-injection validation
  (paper §4.4's "simulator that checks the logic before injecting");
* ``mantle-sim lint <policy-or-file>...`` — static analysis only
  (mantle-lint: CFG/def-use, hook contracts, loop bounds, purity;
  see docs/ANALYSIS.md for the rule catalogue);
* ``mantle-sim run ...`` — run a workload under a policy and report;
* ``mantle-sim inspect ...`` — same run, post-hoc behaviour analysis
  (migration cadence, thrash, guard vetoes, rollout events);
* ``mantle-sim store log|show|diff FILE ...`` — browse a versioned
  policy-store dump (``run --store-dump``, see docs/LIFECYCLE.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .cluster import SimulatedCluster
from .config import ClusterConfig
from .core.api import MantlePolicy
from .core.policies import STOCK_POLICIES
from .core.policyfile import dump_policy, load_policy_file
from .core.validator import validate_policy
from .faults.schedule import FaultSchedule
from .workloads import CompileWorkload, CreateWorkload, ZipfWorkload


def _resolve_policy(spec: str | None) -> MantlePolicy | None:
    if spec is None or spec == "none":
        return None
    if spec in STOCK_POLICIES:
        return STOCK_POLICIES[spec]()
    path = Path(spec)
    if path.exists():
        return load_policy_file(path)
    raise SystemExit(
        f"unknown policy {spec!r}: not a stock policy "
        f"({', '.join(sorted(STOCK_POLICIES))}) and no such file"
    )


def cmd_policies(_args: argparse.Namespace) -> int:
    for name, factory in sorted(STOCK_POLICIES.items()):
        policy = factory()
        print(f"{name:<28} metaload={policy.metaload.strip()[:40]}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    policy = _resolve_policy(args.policy)
    if policy is None:
        raise SystemExit("nothing to show for 'none'")
    sys.stdout.write(dump_policy(policy))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_policy

    reports = []
    for spec in args.policies:
        policy = _resolve_policy(spec)
        if policy is None:
            raise SystemExit("cannot lint 'none'")
        reports.append(lint_policy(policy, num_ranks=args.mds))
    if args.format == "json":
        import json
        print(json.dumps([report.to_dict() for report in reports],
                         indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())
    def failing(report) -> bool:
        if args.strict:
            return bool(report.diagnostics)
        return not report.ok

    if args.expect_fail:
        # CI mode for the broken-policy fixtures: every policy listed must
        # fail lint, proving the rules still fire.
        passed = [report.policy_name for report in reports
                  if not failing(report)]
        if passed:
            print("expected lint findings, but these policies passed: "
                  + ", ".join(passed), file=sys.stderr)
            return 1
        return 0
    return 1 if any(failing(report) for report in reports) else 0


def cmd_validate(args: argparse.Namespace) -> int:
    policy = _resolve_policy(args.policy)
    if policy is None:
        raise SystemExit("cannot validate 'none'")
    report = validate_policy(policy, num_ranks=args.mds,
                             lint=not args.no_lint)
    print(f"policy:   {report.policy_name}")
    print(f"ok:       {report.ok}")
    for problem in report.problems:
        print(f"problem:  {problem}")
    for warning in report.warnings:
        print(f"warning:  {warning}")
    print(f"dry run:  go={report.sample_go} targets={report.sample_targets}")
    return 0 if report.ok else 1


def _build_workload(args: argparse.Namespace):
    if args.workload == "create":
        return CreateWorkload(num_clients=args.clients,
                              files_per_client=args.files,
                              shared_dir=args.shared)
    if args.workload == "compile":
        return CompileWorkload(num_clients=args.clients, scale=args.scale,
                               seed=args.seed)
    if args.workload == "zipf":
        return ZipfWorkload(num_clients=args.clients,
                            num_files=args.files,
                            ops_per_client=args.ops,
                            seed=args.seed)
    raise SystemExit(f"unknown workload {args.workload!r}")


def cmd_run(args: argparse.Namespace) -> int:
    if args.profile or args.profile_out:
        from .perf.profiling import profiled
        with profiled(top=25, out_path=args.profile_out):
            return _cmd_run_inner(args)
    return _cmd_run_inner(args)


def _execute_run(args: argparse.Namespace):
    """Build, arm and run one cluster from ``run``-style arguments.

    Shared by ``run`` and ``inspect`` so both observe the exact same
    simulation.  Returns ``(cluster, report)``, or ``None`` after printing
    a diagnostic when the arguments describe an unrunnable simulation.
    """
    policy = _resolve_policy(args.policy)
    if policy is not None:
        report = validate_policy(policy, lint=not args.no_lint)
        if not report.ok:
            print("refusing to inject an invalid policy:", file=sys.stderr)
            for problem in report.problems:
                print(f"  {problem}", file=sys.stderr)
            if not args.no_lint and any(
                    problem.startswith("lint:")
                    for problem in report.problems):
                print("  (--no-lint bypasses the static analyzer)",
                      file=sys.stderr)
            return None
    schedule = None
    if args.faults:
        try:
            schedule = FaultSchedule.from_file(args.faults)
            schedule.validate(args.mds)
        except (OSError, ValueError) as exc:
            print(f"bad fault schedule {args.faults!r}: {exc}",
                  file=sys.stderr)
            return None
    config = ClusterConfig(
        num_mds=args.mds,
        num_clients=args.clients,
        seed=args.seed,
        dir_split_size=args.split_size,
        client_think_time=args.think,
        stability_guard=args.guard,
    )
    cluster = SimulatedCluster(config, policy=policy,
                               fault_schedule=schedule,
                               lint_policies=not args.no_lint)
    # Shadow and canary candidates are deliberately *not* validated:
    # the lifecycle machinery exists so a bad candidate cannot hurt the
    # run (the breaker, guard and rollback contain it).
    shadow = _resolve_policy(args.shadow)
    if shadow is not None:
        if policy is None:
            raise SystemExit("--shadow needs a live --policy to shadow")
        cluster.arm_shadow(shadow)
    canary = _resolve_policy(args.canary)
    if canary is not None:
        if policy is None:
            raise SystemExit(
                "--canary needs a live --policy to fall back to")
        cluster.arm_canary(canary, rank=args.canary_rank,
                           at=args.canary_at, window=args.canary_window)
    workload = _build_workload(args)
    result = cluster.run_workload(workload)
    if schedule is not None:
        cluster.quiesce()
        result = cluster._report()
    return cluster, result


def _cmd_run_inner(args: argparse.Namespace) -> int:
    outcome = _execute_run(args)
    if outcome is None:
        return 1
    cluster, result = outcome
    print(result.summary_line())
    latency = result.latency_summary()
    print(f"latency: mean={latency.mean * 1e3:.3f}ms "
          f"p95={latency.p95 * 1e3:.3f}ms p99={latency.p99 * 1e3:.3f}ms")
    if result.fault_events:
        for event in result.fault_events:
            where = f"mds{event.rank}" if event.rank >= 0 else "cluster"
            detail = f" {event.detail}" if event.detail else ""
            print(f"fault: t={event.time:8.2f}s {event.kind} {where}{detail}")
        for rank, seconds in sorted(result.recovery_times().items()):
            print(f"recovery: mds{rank} back after {seconds:.2f}s")
    for event in result.lifecycle_events:
        if event.kind == "policy-commit":
            continue
        who = f"mds{event.rank}" if event.rank >= 0 else "cluster"
        print(f"lifecycle: t={event.time:8.2f}s {event.kind} "
              f"{who}: {event.detail}")
    if result.shadow_summary is not None:
        shadow = result.shadow_summary
        print(f"shadow: '{shadow['policy']}' evaluated "
              f"{shadow['evaluated']}/{shadow['ticks']} ticks, "
              f"would_migrate={shadow['would_migrate']} "
              f"(live {shadow['live_migrated']}), "
              f"divergences={shadow['divergences']}, "
              f"errors={shadow['errors']}")
    if args.decisions:
        for decision in result.decisions:
            if decision.exports or decision.error:
                print(f"t={decision.time:8.2f}s mds{decision.rank} "
                      f"targets={decision.targets} error={decision.error}")
                for path, load, target in decision.exports:
                    print(f"    {path} (load {load:.1f}) -> mds{target}")
    if args.store_dump:
        Path(args.store_dump).write_text(cluster.policy_store.to_json())
        print(f"policy store dumped to {args.store_dump}", file=sys.stderr)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from .core.inspector import summarize_behaviour
    outcome = _execute_run(args)
    if outcome is None:
        return 1
    _cluster, result = outcome
    print(summarize_behaviour(result))
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    import difflib

    from .lifecycle import PolicyStore
    try:
        store = PolicyStore.from_json(Path(args.file).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"bad store dump {args.file!r}: {exc}")
    versions = {version.version: version for version in store.log()}

    def pick(number: int):
        if number not in versions:
            known = ", ".join(str(v) for v in sorted(versions))
            raise SystemExit(
                f"no version {number} in {args.file} (have: {known})")
        return versions[number]

    if args.action == "log":
        for version in store.log():
            note = f"  ({version.note})" if version.note else ""
            lint = f"  [{version.lint}]" if version.lint else ""
            print(f"v{version.version}  '{version.name}'  "
                  f"@ {version.time:.1f}s{lint}{note}")
        return 0
    if args.action == "show":
        if len(args.versions) != 1:
            raise SystemExit("store show needs exactly one version number")
        sys.stdout.write(pick(args.versions[0]).source)
        return 0
    if args.action == "diff":
        if len(args.versions) != 2:
            raise SystemExit("store diff needs exactly two version numbers")
        old, new = (pick(number) for number in args.versions)
        sys.stdout.writelines(difflib.unified_diff(
            old.source.splitlines(keepends=True),
            new.source.splitlines(keepends=True),
            fromfile=f"v{old.version} ({old.name})",
            tofile=f"v{new.version} ({new.name})",
        ))
        return 0
    raise SystemExit(f"unknown store action {args.action!r}")


def _parse_seeds(text: str) -> list[int]:
    """'4' -> [0, 1, 2, 3]; '7,11,13' -> [7, 11, 13]."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if len(parts) == 1 and "," not in text:
        return list(range(int(parts[0])))
    return [int(part) for part in parts]


def cmd_sweep(args: argparse.Namespace) -> int:
    from .perf.cache import open_cache
    from .perf.sweep import (build_specs, format_report, normalize_policy,
                             run_sweep_cached)
    seeds = _parse_seeds(args.seeds)
    policies = [part.strip() for part in args.policies.split(",")
                if part.strip()]
    try:
        specs = build_specs(
            seeds, policies,
            workload=args.workload,
            num_mds=args.mds,
            num_clients=args.clients,
            files_per_client=args.files,
            ops_per_client=args.ops,
            dir_split_size=args.split_size,
            guard=args.guard,
            shadow_policy=normalize_policy(args.shadow),
            canary_policy=normalize_policy(args.canary),
            canary_at=args.canary_at,
            canary_window=args.canary_window,
            lint=not args.no_lint,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    cache = open_cache(enabled=not args.no_cache)
    records, hits, misses = run_sweep_cached(
        specs, jobs=args.jobs, cache=cache)
    sys.stdout.write(format_report(records))
    # The footer goes to stderr: stdout stays byte-identical across
    # fresh and cached runs at any --jobs (CI diffs it against
    # examples/expected/sweep.txt).
    if cache is not None:
        print(f"cache: {hits} hit{'s' if hits != 1 else ''}, "
              f"{misses} miss{'es' if misses != 1 else ''} "
              f"({cache.root})", file=sys.stderr)
    if args.out:
        import json
        Path(args.out).write_text(
            json.dumps(records, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .perf.cache import ResultCache
    cache = ResultCache()
    if args.action == "stats":
        stats = cache.stats()
        print(f"dir:     {stats['dir']}")
        print(f"entries: {stats['entries']} "
              f"({stats['records']} records, {stats['objects']} objects)")
        print(f"bytes:   {stats['bytes']}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    raise SystemExit(f"unknown cache action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mantle-sim",
        description="Mantle (SC '15) on a simulated CephFS metadata cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("policies", help="list stock policies") \
        .set_defaults(func=cmd_policies)

    show = sub.add_parser("show", help="print a policy as a .lua file")
    show.add_argument("policy")
    show.set_defaults(func=cmd_show)

    validate = sub.add_parser("validate",
                              help="validate a policy before injection")
    validate.add_argument("policy", help="stock name or .lua policy file")
    validate.add_argument("--mds", type=int, default=4,
                          help="ranks in the dry-run cluster")
    validate.add_argument("--no-lint", action="store_true",
                          help="skip the static analyzer; dry-run only")
    validate.set_defaults(func=cmd_validate)

    lint = sub.add_parser(
        "lint", help="statically analyze policies (mantle-lint)")
    lint.add_argument("policies", nargs="+",
                      help="stock names and/or .lua policy files")
    lint.add_argument("--mds", type=int, default=4,
                      help="cluster size assumed for range proofs")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as failures too")
    lint.add_argument("--expect-fail", action="store_true",
                      help="invert the exit status: succeed only if every "
                           "policy has lint errors (CI fixture mode)")
    lint.set_defaults(func=cmd_lint)

    def add_run_arguments(command: argparse.ArgumentParser) -> None:
        """Simulation arguments shared by ``run`` and ``inspect``."""
        command.add_argument("--policy", default="none",
                             help="stock name, .lua file, or 'none'")
        command.add_argument("--workload", default="create",
                             choices=("create", "compile", "zipf"))
        command.add_argument("--mds", type=int, default=2)
        command.add_argument("--clients", type=int, default=4)
        command.add_argument("--files", type=int, default=20_000,
                             help="files per client (create) / "
                                  "population (zipf)")
        command.add_argument("--ops", type=int, default=20_000,
                             help="ops per client (zipf)")
        command.add_argument("--scale", type=float, default=5.0,
                             help="source-tree scale (compile)")
        command.add_argument("--shared", action="store_true",
                             help="create into one shared directory")
        command.add_argument("--split-size", type=int, default=10_000,
                             help="directory fragmentation threshold")
        command.add_argument("--think", type=float, default=0.0,
                             help="client think time between ops, seconds")
        command.add_argument("--seed", type=int, default=7)
        command.add_argument("--faults", default=None, metavar="FILE",
                             help="JSON fault schedule to inject "
                                  "(see docs/FAULTS.md)")
        command.add_argument("--shadow", default="none", metavar="POLICY",
                             help="dry-run this policy beside the live one "
                                  "on every tick, never applying its "
                                  "decisions (see docs/LIFECYCLE.md)")
        command.add_argument("--canary", default="none", metavar="POLICY",
                             help="stage this policy on one rank; promote "
                                  "to all ranks after a healthy window or "
                                  "auto-roll-back")
        command.add_argument("--canary-rank", type=int, default=None,
                             metavar="N",
                             help="canary rank (default: the highest)")
        command.add_argument("--canary-at", type=float, default=30.0,
                             metavar="T",
                             help="when the canary swap happens, seconds")
        command.add_argument("--canary-window", type=float, default=20.0,
                             metavar="T",
                             help="health-watch window length, seconds")
        command.add_argument("--guard", action="store_true",
                             help="enable the online stability guard "
                                  "(ping-pong export veto)")
        command.add_argument("--no-lint", action="store_true",
                             help="bypass the static-analysis injection "
                                  "gate (the dry-run validator and the "
                                  "runtime breaker still apply)")

    run = sub.add_parser("run", help="run a workload under a policy")
    add_run_arguments(run)
    run.add_argument("--decisions", action="store_true",
                     help="print every balancing decision")
    run.add_argument("--store-dump", default=None, metavar="FILE",
                     help="write the versioned policy store as JSON "
                          "(browse with 'mantle-sim store')")
    run.add_argument("--profile", action="store_true",
                     help="cProfile the run; print top-25 cumulative "
                          "functions to stderr")
    run.add_argument("--profile-out", default=None, metavar="FILE",
                     help="also dump raw pstats data to FILE")
    run.set_defaults(func=cmd_run)

    inspect = sub.add_parser(
        "inspect", help="run a workload, then print the post-hoc "
                        "behaviour analysis (cadence, thrash, lifecycle)")
    add_run_arguments(inspect)
    inspect.set_defaults(func=cmd_inspect)

    store = sub.add_parser(
        "store", help="browse a policy-store dump (run --store-dump)")
    store.add_argument("action", choices=("log", "show", "diff"))
    store.add_argument("file", help="JSON dump from 'run --store-dump'")
    store.add_argument("versions", nargs="*", type=int,
                       help="one version for 'show', two for 'diff'")
    store.set_defaults(func=cmd_store)

    sweep = sub.add_parser(
        "sweep", help="fan seeds x policies over worker processes")
    sweep.add_argument("--seeds", default="4",
                       help="count ('4' -> seeds 0..3) or explicit "
                            "comma list ('7,11,13')")
    sweep.add_argument("--policies", default="greedy-spill",
                       help="comma-separated stock names (underscore "
                            "spellings accepted, e.g. fill_spill)")
    sweep.add_argument("--workload", default="create",
                       choices=("create", "zipf"))
    sweep.add_argument("--mds", type=int, default=2)
    sweep.add_argument("--clients", type=int, default=4)
    sweep.add_argument("--files", type=int, default=2000,
                       help="files per client (create) / population (zipf)")
    sweep.add_argument("--ops", type=int, default=2000,
                       help="ops per client (zipf)")
    sweep.add_argument("--split-size", type=int, default=1000)
    sweep.add_argument("--guard", action="store_true",
                       help="enable the online stability guard in every cell")
    sweep.add_argument("--shadow", default="none", metavar="POLICY",
                       help="shadow-evaluate this stock policy in every cell")
    sweep.add_argument("--canary", default="none", metavar="POLICY",
                       help="canary this stock policy in every cell")
    sweep.add_argument("--canary-at", type=float, default=30.0)
    sweep.add_argument("--canary-window", type=float, default=20.0)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial; output is "
                            "byte-identical either way)")
    sweep.add_argument("--out", default=None, metavar="FILE",
                       help="also write per-cell records as JSON")
    sweep.add_argument("--no-cache", action="store_true",
                       help="skip the result cache (REPRO_NO_CACHE=1 "
                            "does the same)")
    sweep.add_argument("--no-lint", action="store_true",
                       help="bypass the static-analysis injection gate "
                            "in every cell")
    sweep.set_defaults(func=cmd_sweep)

    cache = sub.add_parser(
        "cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left (``| head``): stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
