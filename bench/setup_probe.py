"""Set-up as a new user process pays it: import cflbench (numpy, scipy,
HiGHS), then one small call into each layer.  The benchmark times this
script as a whole, several times, and reports the median as `setup_s`.

Usage: python3 bench/setup_probe.py OUT_DIR   (with src on PYTHONPATH)
"""

import sys
import warnings
from pathlib import Path

import cflbench
from cflbench import cli, harness


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    warnings.simplefilter("ignore")

    # Generator, both LPs, every player, both step solvers, thresholds and the
    # aggregation, on one fixed instance.
    config = harness.SweepConfig(xi_values=(0.5,), epsilon_values=(2.0,),
                                 instances_per_cell=1, seed=0)
    records, aggregates, cdf = harness.cmd_sweep(config)
    cli.records_to_csv(records, str(out_dir / "records.csv"))
    cli.aggregates_to_csv(aggregates, str(out_dir / "aggregates.csv"))
    cli.cdf_to_csv(cdf, str(out_dir / "cdf.csv"))

    # Adaptive adversary on the smallest walk.
    harness.cmd_adversary("alg1", [125.5], m=2, w_steps=2)

    # Trace ingestion and instance files.
    trace = out_dir / "trace.csv"
    trace.write_text("timestamp,region,intensity\n0,a,1\n0,b,2\n1,a,3\n1,b,1\n")
    cflbench.save_instance(cflbench.ingest_trace(str(trace)), str(out_dir / "instance.json"))
    cflbench.load_instance(str(out_dir / "instance.json"))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
