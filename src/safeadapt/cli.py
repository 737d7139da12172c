"""Command-line surface: simulate, classify, check-case, assess.

Exit codes: 0 on success, 2 on validation failures, 3 when the outcome
contains a hazard or an undischarged obligation (CI-friendly).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .assurance import StructuralError, load_case
from .controller import NetControllerSpec
from .harness import emit_trace, load_system, run_scenario, save_report
from .mapek import assess_candidate
from .model import SimulationFault, ValidationError, read_json
from .scenario import load_scenario
from .taxonomy import all_discharged, verdict_for

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSAFE = 3


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    system = load_system(args.system)
    rows, report = run_scenario(scenario, system)
    emit_trace(rows, args.out)
    save_report(report, args.report)
    print(
        f"{scenario.id}: {len(rows) - 1} ticks, hazards {report.hazard_count}, "
        f"guard trips {report.guard_trips}, decisions {len(report.decisions)}, "
        f"SPI breaches {report.spi_breaches}"
    )
    return EXIT_OK if report.clean() else EXIT_UNSAFE


def _emit_verdicts(system, case) -> int:
    verdicts = [
        verdict_for(model, case, now=0.0).to_dict() for model in system.models
    ]
    json.dump(verdicts, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK if all_discharged(verdicts) else EXIT_UNSAFE


def _cmd_classify(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    return _emit_verdicts(system, system.safety_case)


def _cmd_check_case(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    case = load_case(args.case)
    return _emit_verdicts(system, case)


def _cmd_assess(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    suite = system.assessment_suite()
    if suite is None:
        raise ValidationError("system description declares no assessment scenarios")
    candidate = NetControllerSpec.from_dict(read_json(args.candidate))
    outcome = assess_candidate(candidate, suite)
    json.dump(
        {"verdict": outcome["verdict"], "results": outcome["results"]},
        sys.stdout, indent=2, sort_keys=True,
    )
    sys.stdout.write("\n")
    return EXIT_OK if outcome["verdict"] == "pass" else EXIT_UNSAFE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeadapt",
        description="Water-heater self-adaptation simulator and assurance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one scenario against a system")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--system", required=True)
    simulate.add_argument("--out", required=True, help="trace CSV path")
    simulate.add_argument("--report", required=True, help="report JSON path")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.set_defaults(fn=_cmd_simulate)

    classify = sub.add_parser(
        "classify", help="classify a system's adaptation models"
    )
    classify.add_argument("--system", required=True)
    classify.set_defaults(fn=_cmd_classify)

    check = sub.add_parser(
        "check-case", help="check a safety case against a system's obligations"
    )
    check.add_argument("--system", required=True)
    check.add_argument("--case", required=True)
    check.set_defaults(fn=_cmd_check_case)

    assess = sub.add_parser(
        "assess", help="run the assessment suite on a candidate controller"
    )
    assess.add_argument("--system", required=True)
    assess.add_argument("--candidate", required=True)
    assess.set_defaults(fn=_cmd_assess)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # ValidationError covers ClassificationError and LifecycleMismatchError; OSError covers
    # an input path that is missing, a directory or unreadable.
    except (ValidationError, StructuralError, SimulationFault, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
