"""Per-layer metrics derived from the driver's spans and the relay's frames.

Span file (driver/trace.h): one tab-separated span per line,
    id parent name cell thread start_ns end_ns c0 c1 c2 c3
with the counts c0..c3 named per span in campbench/README.md. Frame file
(driver/relay.h): ns conn up|down type lease epoch bytes.
"""

import collections

import stats

TOOLS = ("LLFI", "REFINE", "PINFI")

# campaign/net.h MsgType values.
REQUEST, GRANT, RECORD, WAIT = 2, 3, 4, 7

Span = collections.namedtuple(
    "Span", "id parent name cell thread start end counts")
Frame = collections.namedtuple("Frame", "ns conn up type lease epoch bytes")


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            spans.append(Span(int(p[0]), int(p[1]), p[2], int(p[3]), int(p[4]),
                              int(p[5]), int(p[6]),
                              tuple(int(x) for x in p[7:11])))
    return spans


def read_cells(path):
    """cell index -> (app, tool, base tool)."""
    cells = {}
    with open(path) as f:
        for line in f:
            idx, app, tool, base = line.rstrip("\n").split("\t")
            cells[int(idx)] = (app, tool, base)
    return cells


def read_frames(path):
    frames = []
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            frames.append(Frame(int(p[0]), int(p[1]), p[2] == "up", int(p[3]),
                                int(p[4]), int(p[5]), int(p[6])))
    return frames


def self_times(spans):
    """Span name -> summed self time in seconds: each span's duration minus
    the part of it that its direct children cover."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    totals = collections.defaultdict(float)
    for s in spans:
        covered = 0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor, s.start), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        totals[s.name] += (s.end - s.start - covered) / 1e9
    return dict(totals)


def trial_metrics(spans, cells):
    """Per-tool trial-path metrics plus suffix and restore figures. Returns
    (metrics, notes) where metrics maps name -> (value, unit)."""
    by_tool = collections.defaultdict(list)
    for s in spans:
        if s.name == "vm.trial":
            by_tool[cells[s.cell][2]].append(s)
    metrics, notes = {}, []
    executed = forwarded = restored = trials = 0
    for tool in TOOLS:
        rows = by_tool.get(tool, [])
        if not rows:
            raise ValueError("no trials of %s in the trace" % tool)
        durs = [s.end - s.start for s in rows]
        busy = sum(durs) / 1e9
        instrs = sum(s.counts[0] for s in rows)
        jit = sum(s.counts[1] for s in rows)
        metrics["vm.trials_per_s." + tool] = (len(rows) / busy, "1/s")
        metrics["vm.mips." + tool] = (instrs / busy / 1e6, "MIPS")
        metrics["vm.jit_coverage." + tool] = (jit / instrs, "ratio")
        metrics["vm.trial_us_p50." + tool] = (
            stats.percentile(durs, 50) / 1e3, "us")
        tail = stats.tail_percentile(len(durs))
        p = 99.9 if tail is not None and tail >= 99.9 else (tail or 100.0)
        if p != 99.9:
            notes.append("vm.trial_us_p999.%s reported at p%g: %d trials "
                         "leave fewer than 10 beyond p99.9" %
                         (tool, p, len(durs)))
        metrics["vm.trial_us_p999." + tool] = (
            stats.percentile(durs, p) / 1e3, "us")
        executed += instrs
        forwarded += sum(s.counts[3] for s in rows)
        restored += sum(s.counts[2] for s in rows)
        trials += len(rows)
    metrics["vm.suffix_frac"] = (executed / (executed + forwarded), "ratio")
    metrics["vm.restored_bytes_per_trial"] = (restored / trials, "bytes")
    return metrics, notes


def setup_metrics(spans):
    """Setup-layer self times and the counts recorded at their boundaries."""
    own = self_times(spans)
    total = collections.defaultdict(lambda: [0, 0, 0, 0])
    for s in spans:
        for i, c in enumerate(s.counts):
            total[s.name][i] += c
    return {
        "frontend.compile_s": (own["frontend.compile"], "s"),
        "frontend.ir_instrs": (total["frontend.compile"][0], "count"),
        "opt.optimize_s": (own["opt.optimize"], "s"),
        "opt.protect_s": (own["opt.protect"], "s"),
        "opt.protect_growth": (
            total["opt.protect"][1] / total["opt.protect"][0], "ratio"),
        "backend.codegen_s": (own["backend.codegen"], "s"),
        "backend.machine_instrs": (total["backend.codegen"][0], "count"),
        "fi.instrument_s": (own["fi.instrument"], "s"),
        "fi.static_sites": (total["fi.instrument"][0], "count"),
        "vm.predecode_s": (own["vm.predecode"], "s"),
        "vm.jit_compile_s": (own["vm.jit_compile"], "s"),
        "vm.profile_s": (own["vm.profile"], "s"),
        "vm.snapshots": (total["vm.profile"][0], "count"),
        "vm.snapshot_bytes": (total["vm.profile"][1], "bytes"),
        "campaign.checkpoint_append_us": (stats.median(
            [(s.end - s.start) / 1e3 for s in spans
             if s.name == "campaign.checkpoint_append"]), "us"),
    }


def net_metrics(frames):
    """Wire metrics from the relay's frame log; all zero without one."""
    leases = [f for f in frames if f.type == GRANT]
    grant_ms, wait_s, first_record_ms = [], 0.0, []
    per_conn = collections.defaultdict(list)
    for f in frames:
        per_conn[f.conn].append(f)
    for conn_frames in per_conn.values():
        pending_request = pending_wait = None
        for f in conn_frames:
            if f.up and f.type == REQUEST:
                if pending_wait is not None:
                    wait_s += (f.ns - pending_wait) / 1e9
                    pending_wait = None
                pending_request = f.ns
            elif not f.up and pending_request is not None:
                if f.type == GRANT:
                    grant_ms.append((f.ns - pending_request) / 1e6)
                pending_request = None
                if f.type == WAIT:
                    pending_wait = f.ns
    first_record = {}
    for f in frames:
        if f.type == RECORD and (f.lease, f.epoch) not in first_record:
            first_record[(f.lease, f.epoch)] = f.ns
    for g in leases:
        if (g.lease, g.epoch) in first_record:
            first_record_ms.append(
                (first_record[(g.lease, g.epoch)] - g.ns) / 1e6)
    seen, reissues = set(), 0
    for g in leases:
        reissues += g.lease in seen
        seen.add(g.lease)
    return {
        "net.leases": (len(leases), "count"),
        "net.grant_ms_p50": (stats.median(grant_ms) if grant_ms else 0, "ms"),
        "net.wait_frames": (sum(f.type == WAIT for f in frames), "count"),
        "net.wait_s": (wait_s, "s"),
        "net.grant_to_first_record_ms": (
            stats.median(first_record_ms) if first_record_ms else 0, "ms"),
        "net.reissues": (reissues, "count"),
        "net.bytes": (sum(f.bytes for f in frames), "bytes"),
    }
