"""The benchmark's workloads: inputs built from the seed, one item, one check.

Each workload builds its inputs in ``setup`` (deterministic for a seed, so
set-up can be repeated and timed) and runs one item per ``run`` call, closed
loop: the caller sends the next item only after ``run`` returns.  ``run``
returns a ``Sample`` whose ``ok`` is the correctness gate for that item.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from mtcat import catalog, category_data, io

ITEM_TIMEOUT_S = 120.0  # a CLI child that runs longer is killed and fails
INVARIANT_TOL = 1e-9  # gauge sweep: max |difference| from the ungauged base
PERTURB_FACTOR = 1.0 + 1e-3


@dataclass
class Sample:
    seconds: float  # wall time of the item's work, checks excluded
    ok: bool
    note: str = ""  # why the gate failed
    report_bytes: int = 0
    rss_kb: int = 0  # peak RSS of the CLI child (0 for in-process items)
    pos: int = 0  # item position, set by the runner


def _sub_seeds(entropy, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(entropy).generate_state(n)]


def _gauged(data, gauge_seed: int):
    return category_data.gauge_transform(
        data, category_data.random_gauge(data.ring, gauge_seed)
    )


def _perturbed(data, seed: int):
    """Copy of ``data`` with one seeded F or R entry scaled by PERTURB_FACTOR."""
    keys = [("F", k) for k in sorted(data.F)] + [("R", k) for k in sorted(data.R)]
    kind, key = keys[int(np.random.default_rng(seed).integers(len(keys)))]
    bad = data.copy()
    table = bad.F if kind == "F" else bad.R
    table[key] = table[key] * PERTURB_FACTOR
    return bad


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cycle: list = []  # inputs in the order items visit them
        self.f_keys = self.r_keys = 0.0  # mean work size over the cycle
        self.input_bytes = 0.0  # mean input size over the cycle (0: no input file)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, pos: int, tracer=None) -> Sample:
        raise NotImplementedError

    def _sizes(self, datas, texts=()) -> None:
        self.f_keys = sum(len(d.F) for d in datas) / len(datas)
        self.r_keys = sum(len(d.R) for d in datas) / len(datas)
        if texts:
            self.input_bytes = sum(len(t.encode()) for t in texts) / len(texts)


class CliVerify(Workload):
    """One ``python -m mtcat.cli verify FILE --json`` child per item."""

    name = "cli_verify_k7"
    in_process = False
    LEVEL = 7
    GAUGED_COPIES = 3

    def setup(self) -> None:
        base = catalog.generate(catalog.CatalogSpec("su2_level", level=self.LEVEL))
        datas = [base] + [_gauged(base, s) for s in _sub_seeds(self.seed, self.GAUGED_COPIES)]
        texts = [io.dumps(d) + "\n" for d in datas]
        paths = []
        for i, text in enumerate(texts):
            path = os.path.join(self.workdir, f"{self.name}_{i}.json")
            with open(path, "w") as fh:
                fh.write(text)
            paths.append(path)
        order = np.random.default_rng(self.seed).permutation(len(paths))
        self.cycle = [(paths[i], "modular") for i in order]
        self._sizes(datas, texts)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p
        )

    def run(self, pos: int, tracer=None) -> Sample:
        path, expected = self.cycle[pos % len(self.cycle)]
        argv = [sys.executable, "-m", "mtcat.cli", "verify", path, "--json"]
        spans_path = os.path.join(self.workdir, "cli_child_spans.json")
        if tracer is not None:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            argv = [sys.executable, child, spans_path] + argv[3:]
        out_path = os.path.join(self.workdir, "cli_stdout.txt")
        err_path = os.path.join(self.workdir, "cli_stderr.txt")
        seconds, code, rss_kb = _run_child(argv, self.env, out_path, err_path)
        with open(out_path) as fh:
            out = fh.read()
        if tracer is not None and os.path.exists(spans_path):
            with open(spans_path) as fh:
                tracer.extend(json.load(fh), pos)
            os.remove(spans_path)
        report_bytes = len(out.rstrip("\n").encode())
        if code != 0:
            with open(err_path) as fh:
                err = fh.read().strip().splitlines()
            note = f"exit code {code}: {err[-1] if err else ''}"
            return Sample(seconds, False, note, report_bytes, rss_kb)
        verdict = json.loads(out)["verdict"]
        ok = verdict == expected
        return Sample(seconds, ok, "" if ok else f"verdict {verdict}, expected {expected}",
                      report_bytes, rss_kb)


def _run_child(argv, env, out_path, err_path):
    """Run one child to completion; returns (wall seconds, exit code, peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], ITEM_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return seconds, code, usage.ru_maxrss


class GaugeSweep(Workload):
    """random_gauge -> gauge_transform -> run_report -> report_to_json on su(2)_8."""

    name = "gauge_sweep_k8"
    LEVEL = 8

    def setup(self) -> None:
        base = catalog.generate(catalog.CatalogSpec("su2_level", level=self.LEVEL))
        # the first report builds the pentagon plan on the ring: set-up work
        ref = io.run_report(base)
        self.base = base
        self.ref = {k: np.array(ref["matrices"][k]) for k in ("dims", "twists", "s_tilde")}
        self.cycle = [base]
        self._sizes([base])

    def run(self, pos: int, tracer=None) -> Sample:
        gauge_seed = _sub_seeds([self.seed, pos], 1)[0]
        start = time.perf_counter()
        gauge = category_data.random_gauge(self.base.ring, gauge_seed)
        gauged = category_data.gauge_transform(self.base, gauge)
        text = io.report_to_json(io.run_report(gauged))
        seconds = time.perf_counter() - start
        report = json.loads(text)
        if report["verdict"] != "modular":
            return Sample(seconds, False, f"verdict {report['verdict']}", len(text))
        worst = max(
            float(np.abs(np.array(report["matrices"][k]) - ref).max())
            for k, ref in self.ref.items()
        )
        ok = worst <= INVARIANT_TOL
        return Sample(seconds, ok, "" if ok else f"invariants moved by {worst:.3e}", len(text))


class BatchRank4(Workload):
    """loads -> run_report -> report_to_json over rank-4 inputs of all three verdicts."""

    name = "batch_rank4"
    # (spec, verdict of the data as generated and of its gauged copy)
    BASES = (
        (catalog.CatalogSpec("su2_level", level=3), "modular"),
        (catalog.CatalogSpec("pointed_zn", n=4, q_exponent=0), "degenerate"),
        (catalog.CatalogSpec("pointed_zn", n=4, q_exponent=1), "modular"),
        (catalog.CatalogSpec("pointed_zn", n=4, q_exponent=2), "degenerate"),
    )

    def setup(self) -> None:
        seeds = iter(_sub_seeds(self.seed, 2 * len(self.BASES)))
        datas, expected = [], []
        for spec, verdict in self.BASES:
            base = catalog.generate(spec)
            datas += [base, _gauged(base, next(seeds)), _perturbed(base, next(seeds))]
            expected += [verdict, verdict, "incoherent"]
        texts = [io.dumps(d) for d in datas]
        order = np.random.default_rng(self.seed).permutation(len(texts))
        self.cycle = [(texts[i], expected[i]) for i in order]
        self._sizes(datas, texts)

    def run(self, pos: int, tracer=None) -> Sample:
        text, expected = self.cycle[pos % len(self.cycle)]
        start = time.perf_counter()
        out = io.report_to_json(io.run_report(io.loads(text)))
        seconds = time.perf_counter() - start
        verdict = json.loads(out)["verdict"]
        ok = verdict == expected
        return Sample(seconds, ok, "" if ok else f"verdict {verdict}, expected {expected}",
                      len(out.encode()))


WORKLOADS = {w.name: w for w in (CliVerify, GaugeSweep, BatchRank4)}
