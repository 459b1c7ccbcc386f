"""The component ladder on the pinned benchmark: five rows, two claims.

Adds one training component per row (balanced L1, chamfer curve loss,
uncertainty weighting, LSTM fusion) and evaluates F1, category accuracy,
and temporal jitter on held-out scenes. The claims under test are
directions, not magnitudes: the full row beats the baseline on F1 and
the no-fusion row on jitter.

Runs the full 64/32-scene benchmark in roughly three minutes; pass
--quick for a small split that finishes in under a minute (directions
are not guaranteed at that scale).
"""

import argparse
import time
from dataclasses import replace

from lane3d.config import RunConfiguration
from lane3d.synth import generate_dataset
from lane3d.training import ablation_table, run_ablation

parser = argparse.ArgumentParser()
parser.add_argument("--quick", action="store_true", help="16/8 scenes, 30 epochs")
args = parser.parse_args()

cfg = RunConfiguration()
if args.quick:
    cfg = replace(cfg, num_train_scenes=16, num_eval_scenes=8,
                  train=replace(cfg.train, epochs=30))

print(
    f"benchmark: {cfg.num_train_scenes} train / {cfg.num_eval_scenes} eval scenes, "
    f"{cfg.train.epochs} epochs per row, seed {cfg.train.seed}"
)
train_scenes = generate_dataset(cfg.train_data_seed, cfg.num_train_scenes, cfg.scene)
eval_scenes = generate_dataset(cfg.eval_data_seed, cfg.num_eval_scenes, cfg.scene)

started = time.perf_counter()
results = run_ablation(
    cfg.train,
    train_scenes,
    eval_scenes,
    cfg.scene,
    cfg.loss,
    cfg.distance_threshold,
    cfg.coverage_fraction,
)
print(f"\n{ablation_table(results, cfg.config_hash())}")
print(f"ladder finished in {time.perf_counter() - started:.0f}s")

rows = {r["configuration"]: r for r in results}
full, base, no_fusion = rows["+lstm_fusion"], rows["baseline"], rows["+uncertainty"]
f1_claim = full["f1"] > base["f1"]
jitter_claim = full["jitter"] < no_fusion["jitter"]
print(f"f1:     baseline {base['f1']:.3f} -> full {full['f1']:.3f} "
      f"({'improves' if f1_claim else 'DOES NOT improve'})")
print(f"jitter: no-fusion {no_fusion['jitter']:.3f} -> full {full['jitter']:.3f} "
      f"({'smoother' if jitter_claim else 'NOT smoother'})")
