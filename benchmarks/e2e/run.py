#!/usr/bin/env python3
"""The end-to-end benchmark of this repository: one command, four workloads.

    python3 benchmarks/e2e/run.py                      # all workloads, untraced + traced pass
    python3 benchmarks/e2e/run.py --workload frame_light --seed 3 --seconds 18 --trace 0
    python3 benchmarks/e2e/run.py --repeat 6           # A/A spread table
    python3 benchmarks/e2e/run.py --smoke              # toy sizes, a few seconds

Every workload drives the configuration we would ship (``runtime="process"``,
``render_mode="fused"``, everything else default) through its front door from
one closed-loop client, checks pixels against a serial render, and prints each
metric by name with its unit.  The last line of stdout is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  See README.md here for
what each workload isolates and how to read the layer table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import e2e_trace  # noqa: E402
from e2e_workloads import WORKLOADS, Workload, camera_of, scene_spec  # noqa: E402
from repro.apps.gateway import GatewayClient, decode_image  # noqa: E402
from repro.apps.workloads import scene_from_spec  # noqa: E402
from repro.raytracer.tracer import render  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 3  # fresh-subprocess cold starts per run; setup_s is their median
WARMUPS = 2
COLD_VERIFIED = 3  # cold_scene scenes checked against a serial render
OVERRUN = 1.5  # no new block starts after this multiple of --seconds: the time cap holds
CLOCK_TICK = os.sysconf("SC_CLK_TCK")
_CALIB = np.random.RandomState(0).rand(100_000)


# -- child processes ---------------------------------------------------------------
def become_subreaper() -> None:
    """Have orphaned descendants re-parent to this process instead of init.

    A serving process leaves ``multiprocessing``'s resource tracker behind for a
    moment when it exits; adopted here, it can be waited for like any child, so
    nothing this command started -- not even a zombie -- outlives it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: end_session() still kills and reports what it cannot reap


def spawn(script: str, *args: str, **pipes: Any) -> subprocess.Popen:
    """A benchmark child in a session of its own: its pid names all it forks."""
    return subprocess.Popen([sys.executable, str(HERE / script), *args],
                            start_new_session=True, text=True, **pipes)


def session_members(session: int) -> List[int]:
    """Every process (zombies too) of the session a benchmark child leads."""
    members = []
    for path in glob.glob("/proc/[0-9]*"):
        try:
            if int(_stat_fields(int(path[6:]))[3]) == session:
                members.append(int(path[6:]))
        except (OSError, IndexError, ValueError):
            continue
    return members


def end_session(proc: subprocess.Popen, grace: float = 5.0) -> List[int]:
    """Wait until ``proc`` and everything it forked has ended and is reaped.

    What is still running after ``grace`` seconds is killed.  Returns the pids
    that could not be waited for (none, unless the subreaper call failed).
    """
    killed = False
    deadline = time.monotonic() + grace
    while True:
        try:  # reap the leader and the orphans re-parented to this process
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        left = session_members(proc.pid)
        if not left or time.monotonic() > deadline + grace:
            return left
        if not killed and time.monotonic() > deadline:
            killed = True
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.01)


LEFT_RUNNING: List[int] = []  # pids end_session() could not see end: a failed run


class Server:
    """A child running ``e2e_server.py``; commands are JSON lines."""

    def __init__(self, workload: Workload, seed: int):
        self.proc = spawn("e2e_server.py", workload.mode, json.dumps(workload.__dict__),
                          str(seed), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self._read()  # {"ready": true}: imports are done
        except BaseException:
            self.close()
            raise

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process died (exit {self.proc.poll()})")
        return json.loads(line)

    def call(self, cmd: str, **args: Any) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Ask the server to shut down; return when its whole session has ended."""
        for step in (lambda: self.proc.poll() is None and self.call("close"),
                     self.proc.stdin.close):  # EOF ends a server that missed the command
            try:
                step()
            except (OSError, RuntimeError, ValueError):
                pass
        try:
            self.proc.wait(60)
        except subprocess.TimeoutExpired:
            pass  # end_session() kills it
        LEFT_RUNNING.extend(end_session(self.proc))
        self.proc.stdout.close()


# -- /proc readers ----------------------------------------------------------------
def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()  # [0] is the state field


def family(pid: int) -> List[int]:
    """``pid`` and its live descendants."""
    parents: Dict[int, int] = {}
    for path in glob.glob("/proc/[0-9]*"):
        try:
            parents[int(path[6:])] = int(_stat_fields(int(path[6:]))[1])
        except (OSError, IndexError, ValueError):
            continue
    members = [pid]
    for candidate in members:
        members.extend(p for p, parent in parents.items() if parent == candidate)
    return members


def peak_rss_mb(pid: int) -> float:
    """High-water RSS of the serving process plus its live fork workers."""
    total_kb = 0
    for member in family(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                total_kb += next(int(line.split()[1]) for line in handle
                                 if line.startswith("VmHWM"))
        except (OSError, StopIteration):
            continue
    return total_kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """CPU of the serving process, its reaped children and its live family."""
    total = 0
    for member in family(pid):
        try:
            fields = _stat_fields(member)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime + stime
        if member == pid:
            total += int(fields[13]) + int(fields[14])  # reaped children
    return total / CLOCK_TICK


def calibrate() -> float:
    """A fixed ~45 ms pure-Python + NumPy loop: how fast is the host right now?

    Element-wise NumPy only: a BLAS call would time its thread pool instead.
    The best of three, so that one preemption does not read as a slow host.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(250_000):
            acc += i * i
        for _ in range(40):
            np.sqrt(_CALIB * _CALIB + 1.0).sum()
        samples.append(time.perf_counter() - start)
    return min(samples)


def spread(values: List[float]) -> float:
    """(max - min) / median; 0 for a column that is empty or all zero."""
    median = statistics.median(values) if values else 0.0
    return (max(values) - min(values)) / median if median else 0.0


def p50(block: Dict[str, Any]) -> float:
    """A block's median request latency."""
    return statistics.median(block["rows"]["latency"])


# -- driving one workload ---------------------------------------------------------
class Session:
    """One serving process and its client; hides gateway vs animation mode."""

    def __init__(self, workload: Workload, seed: int):
        self.workload, self.seed = workload, seed
        self.server = Server(workload, seed)
        self.client: Optional[GatewayClient] = None
        self.sent = 0  # requests sent so far: the index of the next scene spec
        self.attempted, self.failed = 1, 0  # counting the cold first frame
        self.verified: Dict[str, str] = {}  # spec key -> sha256 of the checked frame
        started = time.perf_counter()
        try:
            address = self.server.call("start")
            if workload.mode == "gateway":
                self.client = GatewayClient(address["host"], address["port"], timeout=150.0)
                reply = self.request()
                if reply.get("status") != "ok":
                    raise RuntimeError(f"first request failed: {reply}")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.server.proc.pid

    def next_spec(self) -> Tuple[Dict[str, Any], str]:
        """The scene spec the next request will carry, and its key in ``verified``."""
        spec = scene_spec(self.workload, self.seed, self.sent)
        return spec, json.dumps(spec, sort_keys=True)

    def send(self, **extra: Any) -> None:
        """Fire the next request; its reply is the next ``client.recv()``."""
        w = self.workload
        spec, _ = self.next_spec()
        self.sent += 1
        self.client.send({"op": "render", "tenant": "default", "scene": spec,
                          "variant": w.variant, "nodes": w.nodes, "tasks": w.tasks, **extra})

    def request(self) -> Dict[str, Any]:
        self.send()
        return self.client.recv()

    def verify_next(self) -> None:
        """Fetch the next frame with its pixels; compare with a serial render.

        The reference is rendered while the server works on the request (this
        is outside the timed phase, and the time cap is tight).
        """
        spec, key = self.next_spec()
        self.send(return_image=True)
        self.attempted += 1
        scene = scene_from_spec(spec)
        reference = render(scene, camera_of(self.workload, scene), mode="fused")
        reply = self.client.recv()
        if reply.get("status") == "ok" and np.allclose(
                decode_image(reply), reference, atol=1e-9):
            self.verified[key] = reply["image_sha256"]
        else:
            print(f"PIXEL MISMATCH on {spec}: {reply.get('status')}", file=sys.stderr)
            self.failed += 1

    def block(self, n: int, *, poll_bytes: bool = False) -> Dict[str, Any]:
        """``n`` closed-loop requests; per-request columns plus the block wall."""
        if self.workload.mode == "animation":
            result = self.server.call("frames", n=n)
            rows = result["frames"]
            rows["latency"] = [t1 - t0 for t0, t1 in zip(rows["t0"], rows["t1"])]
            rows["overhead"] = [t1 - tc - s - q for tc, t1, s, q in zip(
                rows["t_commit"], rows["t1"], rows["seconds"], rows["queued_seconds"])]
            wall = rows["t1"][-1] - rows["t0"][0] if rows["t0"] else float("nan")
            self.attempted += n
            self.failed += result["failed"]
            return {"rows": rows, "wall": wall, "ok": n - result["failed"]}
        names = ("t0", "t1", "latency", "overhead", "seconds", "queued_seconds", "warm",
                 "tiles_reused", "rays_saved", "rays_cast", "bytes_pickled")
        rows: Dict[str, List[Any]] = {name: [] for name in names}
        pickled = self._bytes_pickled() if poll_bytes else 0
        started = t1 = time.perf_counter()
        for _ in range(n):
            expected = self.verified.get(self.next_spec()[1])
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                reply = self.request()
            except (OSError, RuntimeError, ValueError) as exc:
                reply = {"status": "error", "message": repr(exc)}
            t1 = time.perf_counter()
            if reply.get("status") != "ok" or (
                    expected is not None and reply["image_sha256"] != expected):
                print(f"request failed: {reply}", file=sys.stderr)
                self.failed += 1
                continue
            shipped = 0
            if poll_bytes:  # outside the request's own window (traced blocks only)
                now = self._bytes_pickled()
                pickled, shipped = now, now - pickled
            row = (t0, t1, t1 - t0, t1 - t0 - reply["seconds"] - reply["queued_seconds"],
                   reply["seconds"], reply["queued_seconds"], reply["warm"],
                   reply["tiles_reused"], reply["rays_saved"], reply["rays_cast"], shipped)
            for name, value in zip(names, row):
                rows[name].append(value)
        # the block's wall runs from the first send to the last reply parsed, so
        # client-side gaps between requests count against throughput
        return {"rows": rows, "wall": t1 - started, "ok": len(rows["latency"])}

    def _bytes_pickled(self) -> int:
        return self.metrics()["service"]["bytes_pickled"]

    def metrics(self) -> Dict[str, Any]:
        if self.client is not None:
            return self.client.metrics()
        return self.server.call("metrics")

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.server.close()


def measure_setup(workload: Workload, seed: int, repeats: int) -> Tuple[List[float], Session]:
    """``repeats`` cold starts in fresh processes; the last one is kept."""
    samples: List[float] = []
    for i in range(repeats):
        session = Session(workload, seed)
        samples.append(session.setup_s)
        if i < repeats - 1:
            session.close()
    return samples, session


def run_workload(workload: Workload, seed: int, seconds: float, *, trace: bool,
                 smoke: bool, out_dir: Optional[pathlib.Path]) -> Dict[str, Any]:
    """One workload, start to clean exit: end-to-end (and, traced, per-layer) metrics."""
    w = workload.tiny() if smoke else workload
    tracing = trace or smoke
    calibrate()  # the first call in a process pays first-touch costs
    shm_before = set(glob.glob("/dev/shm/psm_*"))
    loadavg = os.getloadavg()[0]
    # the traced pass reports no setup_s: one cold start is enough there
    setups, session = measure_setup(w, seed, 1 if tracing else SETUP_REPEATS)
    calib: List[float] = []
    try:
        # warm-up and correctness, outside the timed phase
        # (animation blocks start right after the cold build, whole cycles)
        if w.mode == "gateway":
            for _ in range(w.scenes or COLD_VERIFIED):
                session.verify_next()
            session.block(1 if smoke else WARMUPS)

        # the timed phase: a fixed number of blocks of a fixed request count, so
        # every run of a workload does the same work (and fills the same caches);
        # --seconds scales the block count from what run_seconds takes on a 2-vCPU
        # host.  The traced pass has a size of its own (--seconds does not apply):
        # it alternates untraced and traced blocks, so both sides of
        # trace.overhead_ratio see the same minutes of host speed.
        count = w.trace_rounds if tracing else max(
            1, round(w.blocks * seconds / BENCHMARK["run_seconds"]))
        blocks: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        spans: List[Dict[str, Any]] = []
        cpu_before = cpu_seconds(session.pid)
        deadline = time.perf_counter() + OVERRUN * seconds
        for _ in range(count):
            if blocks and not tracing and time.perf_counter() > deadline:
                print(f"warning: host too slow for {count} blocks in {OVERRUN} x "
                      f"{seconds:g} s; stopping after {len(blocks)}")
                break
            calib.append(calibrate())
            blocks.append(session.block(w.block))
            if tracing:
                session.server.call("trace", on=True)
                traced.append(session.block(w.block, poll_bytes=w.mode == "gateway"))
                spans += session.server.call("spans")["spans"]
                session.server.call("trace", on=False)
        if not all(b["ok"] for b in blocks + traced):
            raise RuntimeError("a whole block failed; see the messages above")
        host = {
            "host.calib_s": statistics.median(calib),
            "host.calib_spread": spread(calib),
            "host.cpu_s_per_request": (cpu_seconds(session.pid) - cpu_before) / sum(
                b["ok"] for b in blocks + traced),
            "host.loadavg_start": loadavg,
        }

        block_p50 = [p50(b) for b in blocks]
        block_rps = [b["ok"] / b["wall"] for b in blocks]
        end_to_end = {
            "setup_s": statistics.median(setups),
            "latency_p50_s": statistics.median(block_p50),
            "throughput_rps": statistics.median(block_rps),
        }

        free = session.metrics()
        end_to_end["peak_rss_mb"] = peak_rss_mb(session.pid)
        if w.mode == "animation":
            checked = session.server.call("verify")
            session.attempted += checked["checked"]
            session.failed += checked["mismatched"]
    finally:
        session.close()  # returns when the server's whole session has ended

    per_layer = {**host, **per_layer_metrics(
        w, seed, blocks, traced, spans, free, out_dir)} if tracing else None
    survivors = sorted(LEFT_RUNNING)
    leaked = sorted(set(glob.glob("/dev/shm/psm_*")) - shm_before)
    if survivors or leaked:
        print(f"LEAK: surviving pids {survivors}, shm segments {leaked}", file=sys.stderr)
    if host["host.calib_spread"] > 0.10:
        print(f"warning: host.calib_s spread {host['host.calib_spread']:.0%} within this "
              "run; the host is noisy, timings are less trustworthy than usual")

    result: Dict[str, Any] = {
        "workload": workload.name, "seed": seed,
        "attempted": session.attempted, "failed": session.failed,
        "correct": session.failed == 0 and not survivors and not leaked,
        "end_to_end": end_to_end, "setup_samples": setups,
        "block_latency_p50_s": block_p50, "block_throughput_rps": block_rps,
    }
    if per_layer is not None:
        result["per_layer"] = per_layer
    return result


# -- per-layer metrics --------------------------------------------------------------
def run_probes(w: Workload, seed: int, workers: int) -> Dict[str, float]:
    """The direct-call probes, in a child: they fork workers of their own."""
    proc = spawn("e2e_probes.py", json.dumps(w.__dict__), str(seed), str(workers),
                 stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        LEFT_RUNNING.extend(end_session(proc))
        proc.stdout.close()
    if proc.returncode or not lines:
        raise RuntimeError(f"the probes failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def per_layer_metrics(w: Workload, seed: int, blocks: List[Dict[str, Any]],
                      traced: List[Dict[str, Any]], server_spans: List[Dict[str, Any]],
                      free: Dict[str, Any], out_dir: Optional[pathlib.Path]) -> Dict[str, float]:
    workers = os.cpu_count() or 1
    out = run_probes(w, seed, workers)

    def column(name: str, source: List[Dict[str, Any]] = blocks) -> List[Any]:
        return [x for b in source for x in b["rows"][name]]

    service = free["service"]
    gateway = free.get("gateway", {})
    jobs = service["jobs"]
    out["gateway.self_s"] = statistics.median(column("overhead"))
    out["gateway.requests"] = gateway.get("requests", jobs["submitted"])
    out["gateway.rejected"] = gateway.get("rejected", jobs["rejected"])
    out["gateway.errors"] = gateway.get("errors", jobs["failed"])
    out["service.queue_wait_p50_s"] = service["latency"]["queue_wait"]["p50"]
    out["service.setup_p50_s"] = service["latency"]["setup"]["p50"]
    out["service.warm_hit_rate"] = service["warm_hit_rate"]
    out["service.cold_builds"] = service["warm_pool"]["cold_builds"]
    out["service.slots_evicted"] = (service["warm_pool"]["evictions_lru"]
                                    + service["warm_pool"]["evictions_ttl"])

    # coherence: what the tile cache saved, and the two ends of the edit cycle
    total_rays = w.width * w.height
    tiles, saved = column("tiles_reused"), column("rays_saved")
    out["coherence.tiles_reused_ratio"] = sum(tiles) / (w.tasks * len(tiles))
    out["coherence.rays_saved_ratio"] = sum(saved) / (total_rays * len(saved))
    edge = min(8, w.block)
    out["coherence.latency_cycle_start_s"] = statistics.median(
        x for b in blocks for x in b["rows"]["latency"][:edge])
    out["coherence.latency_cycle_end_s"] = statistics.median(
        x for b in blocks for x in b["rows"]["latency"][-edge:])
    shipped = column("bytes_pickled", traced)
    out["coherence.ship_bytes_cycle_start"] = statistics.mean(
        x for b in traced for x in b["rows"]["bytes_pickled"][:edge])
    out["coherence.ship_bytes_cycle_end"] = statistics.mean(
        x for b in traced for x in b["rows"]["bytes_pickled"][-edge:])
    out["runtime.bytes_pickled"] = statistics.median(shipped)
    out["runtime.bytes_pickled_spread"] = spread(shipped) if max(shipped) else 0.0

    # client
    latencies = sorted(column("latency"))
    tail_index = max(0, len(latencies) - 11)  # ten samples lie beyond the 11th-largest
    out["client.latency_tail_s"] = latencies[tail_index]
    out["client.latency_tail_percentile"] = 100.0 * tail_index / len(latencies)
    out["client.block_spread"] = spread([p50(b) for b in blocks])

    # the traced pass: request roots (client side) over the server's spans
    starts, ends = column("t0", traced), column("t1", traced)
    roots = [e2e_trace.root_span(i, t0, t1) for i, (t0, t1) in enumerate(zip(starts, ends))]
    spans = e2e_trace.adopt(server_spans, roots)
    if w.mode == "animation":  # the animation loop times its own commit
        spans += [e2e_trace.child_span(f"commit-{root['request_id']}", root,
                                       "SceneEditor.commit", "mutation", root["start"], tc)
                  for root, tc in zip(roots, column("t_commit", traced))]
    # the reply path, on the gateway's own code: from the job's last wrapped call
    # returning (extract_image) to the reply parsed by the client -- result
    # hand-off to the event loop, sha256 + json.dumps of the frame, socket, json.loads
    rendered = {span["request_id"]: span["end"] for span in spans
                if span["name"] == "extract_image"}
    out["gateway.reply_encode_s"] = statistics.median(
        root["end"] - rendered[root["request_id"]] for root in roots)
    kernel_share = (out["raytracer.kernel_s"] * statistics.mean(column("rays_cast", traced))
                    / out["raytracer.rays_cast"] / workers)
    table = e2e_trace.layer_table(spans, len(roots), kernel_share)
    print(e2e_trace.format_table(w.name, table))
    for row in (*e2e_trace.LAYERS, "unaccounted"):
        out[f"trace.{row}_self_s"] = table[row]
    out["trace.unaccounted_share"] = table["unaccounted"] / table["request"]
    out["trace.overhead_ratio"] = (statistics.median(map(p50, traced))
                                   / statistics.median(map(p50, blocks)))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"spans_{w.name}_seed{seed}.json").write_text(json.dumps(spans))
    return out


# -- reporting ---------------------------------------------------------------------
def fingerprint(seed: int) -> Dict[str, Any]:
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, "seed": seed,
            "loadavg_1min": os.getloadavg()[0]}


UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def print_metrics(workload: str, metrics: Dict[str, float]) -> None:
    for name, value in metrics.items():
        print(f"[{workload}] {name:<36} {value:14.6g} {UNITS.get(name, '')}")


def contract_line(result: Dict[str, Any], which: str) -> str:
    metrics = {m["name"]: {"value": float(result[which][m["name"]]), "unit": m["unit"]}
               for m in BENCHMARK[which]}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def report(result: Dict[str, Any]) -> None:
    name = result["workload"]
    print_metrics(name, result["end_to_end"])
    print(f"[{name}] requests_attempted {result['attempted']}  requests_failed "
          f"{result['failed']}  (block p50 s "
          f"{['%.4f' % x for x in result['block_latency_p50_s']]}; set-ups s "
          f"{['%.3f' % x for x in result['setup_samples']]})")
    if "per_layer" in result:
        print_metrics(name, result["per_layer"])


def repeat_table(runs: List[List[Dict[str, Any]]]) -> None:
    """Median, quartiles and (max - min) / median per workload and metric."""
    print(f"\nA/A spread over {len(runs)} runs")
    print(f"{'workload':<16}{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'range/med':>10}")
    for index, first in enumerate(runs[0]):
        for metric in first["end_to_end"]:
            values = [run[index]["end_to_end"][metric] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
            median = statistics.median(values)
            print(f"{first['workload']:<16}{metric:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{(q3 - q1) / median:>9.3f}{spread(values):>10.3f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="length of the untraced timed phase: scales the block count "
                             "(the traced pass has a fixed size and ignores it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the untraced set N times and print the A/A spread table")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one short block, traced pass included")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory for results.json and span files (default: write nothing)")
    args = parser.parse_args(argv)

    become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind: children are stopped
    print("fingerprint", json.dumps(fingerprint(args.seed)))
    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    if args.smoke or args.repeat:
        passes = [False]

    def one(name: str, trace: bool) -> Dict[str, Any]:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, trace=trace,
                              smoke=args.smoke, out_dir=args.out)
        report(result)
        return result

    results: List[Dict[str, Any]] = []
    runs: List[List[Dict[str, Any]]] = []
    for _ in range(max(1, args.repeat)):
        runs.append([one(name, trace) for trace in passes for name in names])
        results.extend(runs[-1])
    if args.repeat:
        repeat_table(runs)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.json").write_text(json.dumps(
            {"fingerprint": fingerprint(args.seed), "results": results}, indent=1))

    correct = all(r["correct"] for r in results)
    if args.workload and len(results) == 1:
        print(contract_line(results[0], "per_layer" if "per_layer" in results[0]
                            and args.trace else "end_to_end"))
    else:
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
