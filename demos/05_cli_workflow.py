"""
Driving experiments through the batch CLI.

Every experiment is one `idsa-lab run <config>` invocation: a flat
key = value file, deterministic CSV artifacts, and a manifest recording
every parameter the experiment reads.  This script writes a config,
runs three experiments into ./demo-output/, and shows what lands on disk.
"""

import json
import subprocess
import sys
from pathlib import Path

out_root = Path("demo-output")
out_root.mkdir(exist_ok=True)


def run(name: str, text: str, *overrides: str) -> Path:
    cfg = out_root / f"{name}.cfg"
    cfg.write_text(text)
    out_dir = out_root / name
    cmd = [sys.executable, "-m", "idsa_lab.cli", "run", str(cfg),
           "--set", f"output_dir={out_dir}"]
    for item in overrides:
        cmd += ["--set", item]
    print(f"$ idsa-lab run {cfg} --set output_dir={out_dir}",
          *(f"--set {o}" for o in overrides))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"exit {proc.returncode}: {proc.stderr}")
    return out_dir


# 1. Exact moment profiles on a small grid.
oracle_dir = run("oracle", "experiment = oracle\nkappa = 1\n", "n_cells=200")
print("   wrote", *(p.name for p in sorted(oracle_dir.iterdir())))

# 2. The closed-form center-error curve.
err0_dir = run("err0", "experiment = err0\nkappaR_list = 1, 2, 4, 6, 10, 20\n")
print("   err0.csv:")
for line in (err0_dir / "err0.csv").read_text().splitlines():
    print("     ", line)

# 3. A small opacity sweep with its fit summary.
conv_dir = run(
    "convergence",
    "experiment = convergence\nvariant = new\nkappa_list = 1, 4, 16\n",
    "n_cells=1500",
)
print("   fit.txt:")
for line in (conv_dir / "fit.txt").read_text().splitlines():
    print("     ", line)

manifest = json.loads((conv_dir / "manifest.json").read_text())
print("\n   manifest records the parameters convergence reads:")
for key, value in manifest["parameters"].items():
    print(f"     {key} = {value}")
print(f"   tool version {manifest['version']}; outputs: {manifest['outputs']}")
print("\nidentical configs give byte-identical CSV bodies; numbers carry 17")
print("significant digits so downstream fits are not quantization limited.")
