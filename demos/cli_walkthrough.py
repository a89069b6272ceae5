"""
The command-line workflow, end to end
=====================================

Every stage of the study pipeline is exposed as a koafusion subcommand:
synthesize a cohort, fit T2 maps, preprocess, train, evaluate, compare
against the clinical baseline, ablate modalities, rank settings, and slice
metrics by subgroup.  This demo drives the whole chain in a scratch
directory through the same entry point the installed script uses.

All commands are deterministic given their seeds; running this script twice
produces byte-identical artifacts.
"""

import json
import os
import tempfile

from koafusion.cli import main

root = tempfile.mkdtemp(prefix="koafusion_demo_")
os.chdir(root)
print(f"working in {root}\n")

commands = [
    # a small cohort with a strong imaging effect
    ["synth", "--out", "cohort", "--n", "16", "--prevalence", "0.25",
     "--scale", "0.05", "--seed", "2", "--effect-size", "1.0"],
    # precompute T2 maps so later stages can load them directly
    ["fit-t2", "--cohort", "cohort/cohort.json", "--out", "t2"],
    # one subject through one chain, saved for inspection
    ["preprocess", "--cohort", "cohort/cohort.json", "--subject", "S0000",
     "--protocol", "XR", "--mode", "eval", "--scale", "0.05", "--out", "prep"],
    # a deliberately tiny training run: 2 folds, 2 epochs
    ["train", "--cohort", "t2/cohort.json", "--arch", "MR1",
     "--protocols", "T2MAP", "--scale", "0.05", "--epochs", "2",
     "--descriptor-dim", "16", "--trf-layers", "1", "--trf-heads", "2",
     "--folds", "2", "--seed", "0", "--out", "run"],
    # held-out metrics with bootstrap uncertainty
    ["eval", "--run", "run", "--cohort", "t2/cohort.json",
     "--bootstrap", "200", "--seed", "0", "--out", "eval_out"],
    # the clinical logistic baseline on the same split
    ["baseline", "--cohort", "t2/cohort.json", "--variable-set", "C1",
     "--bootstrap", "200", "--folds", "2", "--out", "base"],
    # how much does the trained model use each modality?
    ["ablate", "--run", "run", "--cohort", "t2/cohort.json", "--out", "abl"],
    # aggregate ranks over the built-in fusion results table
    ["rank", "--out", "rank_out"],
    # subgroup metrics from the saved held-out scores
    ["subgroups", "--cohort", "t2/cohort.json",
     "--scores", "24:eval_out/scores.json", "--out", "sub"],
]

for argv in commands:
    print(f"$ koafusion {' '.join(argv)}")
    code = main(list(argv))
    assert code == 0, f"command failed with exit code {code}"
    print()

# every command writes a JSON report embedding its arguments and a hash of
# its configuration
with open("eval_out/metrics.json") as f:
    report = json.load(f)
print("eval report keys:", sorted(report))
print("config hash:", report["config_hash"])
