#!/usr/bin/env python3
"""Constrained attack benchmark on the synthetic credit schema.

Builds the labeled tabular dataset, trains the classifier and the
feasible-region noise model, then runs the plain, penalty, and
cyclic attacks over the same test rows and prints the comparison
table (success rate, mean violation, per-constraint breakdown).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diffrefine.adversarial import (
    AttackConfig,
    classifier_accuracy,
    cyclic_attack,
    evaluate_attacks,
    generate_tabular_dataset,
    load_schema,
    penalty_pgd_attack,
    pgd_attack,
    report_table_lines,
    train_feasible_prior,
    train_tabular_classifier,
    write_attack_artifacts,
)
from diffrefine.diffusion import make_schedule


def _ratio(a: float, b: float) -> str:
    return f"{a / b:.3f}" if b else "n/a (pgd scored 0)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=500, help="test rows to attack")
    ap.add_argument("--mu", type=float, default=10.0, help="penalty attack weight")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional artifact directory")
    args = ap.parse_args()

    t0 = time.perf_counter()
    pot = load_schema()
    print("drawing feasible dataset")
    ds = generate_tabular_dataset(pot, seed=args.seed)
    print("training classifier")
    model = train_tabular_classifier(ds)
    accuracy = classifier_accuracy(model, ds.test.features, ds.test.labels)
    print(f"clean test accuracy: {100.0 * accuracy:.1f}%")
    print("training feasible-region noise model")
    prior = train_feasible_prior(ds, make_schedule(60, 1e-4, 0.03))

    cfg = AttackConfig(seed=args.seed)
    attacks = {
        "pgd": lambda x, y: pgd_attack(model, x, y, cfg, pot),
        "penalty": lambda x, y: penalty_pgd_attack(model, x, y, cfg, pot, mu=args.mu),
        "cyclic": lambda x, y: cyclic_attack(model, x, y, cfg, pot, prior)[0],
    }
    print(f"attacking {args.samples} correctly classified rows")
    reports = evaluate_attacks(
        model, ds.test.features, ds.test.labels, attacks, pot=pot,
        max_samples=args.samples,
    )
    for line in report_table_lines(reports):
        print(line)
    pgd, cyc = reports[0], reports[2]
    print(f"violation ratio cyclic/pgd: {_ratio(cyc.mean_phi, pgd.mean_phi)}")
    print(f"success ratio cyclic/pgd: {_ratio(cyc.success_rate, pgd.success_rate)}")
    print(f"wall time: {time.perf_counter() - t0:.1f}s")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_attack_artifacts(out, reports)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
