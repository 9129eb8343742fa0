package main

// This file is the benchmark's contract in Go form: the workloads, the
// end-to-end metrics with their bounds, and the per-layer ledger with the
// prediction written down for each row. BENCHMARK.json and README.md
// repeat it, and a test keeps the three in step.

// defaultSeconds is the measured window of one run (BENCHMARK.json's
// run_seconds). Repetition counts derive from it.
const defaultSeconds = 15

// Workload names.
const (
	wSweepWrite = "sweep_write"
	wSweepRead  = "sweep_read"
	wScaleWide  = "scale_wide"
	wServeCold  = "serve_cold"
	wServeWarm  = "serve_warm"
)

type workloadDef struct {
	Name string
	Why  string
	// Sim workloads run points one after another on the serial engine
	// under GC percent 400, as asyncio-bench does; service workloads run
	// an in-process campaign server under the default GC, as
	// asyncio-serve does.
	Sim bool
	// RepSeconds is the calibrated cost of one repetition of the fixed
	// script on the 2-core reference machine. It turns --seconds into a
	// repetition count; re-calibrate it, never the script.
	RepSeconds float64
}

var workloadDefs = []workloadDef{
	{wSweepWrite, "fig3a+fig3b at reduced scale: the VPIC-IO write path (ioreq, hdf5 write, asyncvol stage-copy, taskengine, pfs/flow write flows), sync and async", true, 2.0},
	{wSweepRead, "fig3c+fig3d at reduced scale: BD-CATS-IO reads with prefetch, the same layers used the other way; a write-path gain that costs reads shows here", true, 2.2},
	{wScaleWide, "fig3a+fig3c at 512 Summit nodes (3072 ranks): few bytes per event, many procs, so vclock heap/wakeups and mpi collectives dominate", true, 5.2},
	{wServeCold, "never-seen run and sweep specs through the daemon: scheduler, single-flight, fairness, ComputePoint with exporters, bundle encode, store write-behind", false, 2.2},
	{wServeWarm, "nothing is simulated: spec decode and hash, campaign lookup, LRU smaller than the working set, store reads, table assembly, bundle decode, restart and recovery", false, 2.2},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// repetitions turns the measured window into a repetition count: the
// script is fixed, so counts of events, allocations and bytes repeat
// exactly and only host time varies.
func (w *workloadDef) repetitions(seconds int) int {
	r := int(float64(seconds)/w.RepSeconds + 0.5)
	return max(r, 2)
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median
	// Moves is the written prediction for a per-layer row: which
	// end-to-end metric it should move on which workload, and where no
	// change is expected.
	Moves string
}

// endToEndDefs are what a user of the simulator or the daemon sees. Every
// workload reports every one of them; the README says how each reads on
// a simulator workload (operation = one simulated point, event = one
// vclock event) and on a service workload (operation = event = one HTTP
// request).
//
// The bounds of the timings are what this class of machine can hold, not
// what one would wish: in A/A studies of ten runs per workload on the
// 2-vCPU reference VM the quartile spread of a timing was 2.5–10.6 % of
// its median (15–17 % in a busy phase of the host), and the contract asks
// for a bound of three times the spread, at most 25 %. The two counts
// repeat to a fraction of a percent and keep the issue's tight bounds;
// they are the sharp gates.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ns_per_event", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_event", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_bytes_per_event", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// fileOnlyDefs complete the issue's eleven end-to-end metrics. They
// appear in a full run's results file and in -compare but not in
// BENCHMARK.json, whose contract wants every end-to-end metric measured,
// and never zero, on every workload, and holding its bound run to run:
// recover_s exists only where a store restarts, fail_ratio is zero
// whenever the benchmark is healthy (the driver reads the same fact from
// "attempted" and "failed"), and the peak RSS of a simulator workload
// under GC percent 400 depends on where the collector's cycles fall
// (quartile spread 18–41 % over ten runs), so by the issue's own rule it
// moved to the ledger as benchmark.workload.rss_peak_mb.
var fileOnlyDefs = []metricDef{
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0},
}

const (
	movesEngine = "ns_per_event on scale_wide first, both sweeps second; no change on serve_warm"
	movesWrite  = "ns_per_event on sweep_write; no change on serve_warm"
	movesRead   = "ns_per_event on sweep_read; no change on serve_warm"
	movesBoth   = "ns_per_event on sweep_write and sweep_read; no change on serve_warm"
	movesAsyncW = "allocs_per_event and ns_per_event on sweep_write (async points); no change on serve_warm"
	movesMeta   = "lat_p50_ms on serve_cold (castro/amrex metadata); no change on serve_warm"
	movesWall   = "decomposes wall_s on the three simulator workloads; no change on serve_warm"
	movesExport = "lat_p50_ms and req_per_s on serve_cold; no change on the sweeps or serve_warm"
	movesAppend = "req_per_s on serve_cold; no change on the sweeps"
	movesRecov  = "recover_s and the recovered class (lat_p99_ms) on serve_warm; no change on the sweeps"
	movesWarm   = "lat_p50_ms (dedupe), lat_p99_ms (artifact) and req_per_s on serve_warm; none on the sweeps"
	movesCold   = "lat_p50_ms and req_per_s on serve_cold; none on serve_warm"
)

// perLayerDefs is the per-layer ledger, <module>.<probe>.<unit>. Each
// probe is a fixed-count driver on a bare vclock.Clock (or, for the
// campaign rows, a small in-process daemon) reporting host cost per
// operation.
var perLayerDefs = []metricDef{
	{Name: "vclock.sleep.ns_per_event", Unit: "ns", Better: "lower", Moves: movesEngine},
	{Name: "vclock.fanout.ns_per_event", Unit: "ns", Better: "lower", Moves: movesEngine},
	{Name: "vclock.timers.ns_per_event", Unit: "ns", Better: "lower", Moves: movesEngine},
	{Name: "vclock.procs4096.ns_per_event", Unit: "ns", Better: "lower", Moves: movesEngine},
	{Name: "vclock.procs4096.allocs_per_event", Unit: "count", Better: "lower", Moves: "allocs_per_event on scale_wide; no change on serve_warm"},
	{Name: "mpi.barrier4096.ns_per_rank", Unit: "ns", Better: "lower", Moves: movesEngine},
	{Name: "mpi.allreduce4096.ns_per_rank", Unit: "ns", Better: "lower", Moves: movesEngine},
	{Name: "mpi.gather4096.ns_per_rank", Unit: "ns", Better: "lower", Moves: movesEngine},
	{Name: "mpi.barrier4096.allocs_per_rank", Unit: "count", Better: "lower", Moves: "allocs_per_event on scale_wide; no change on serve_warm"},
	{Name: "mpi.sendrecv.ns_per_msg", Unit: "ns", Better: "lower", Moves: movesEngine},

	{Name: "flow.transfer.ns_per_flow", Unit: "ns", Better: "lower", Moves: movesBoth},
	{Name: "flow.transfer.allocs_per_flow", Unit: "count", Better: "lower", Moves: "allocs_per_event on sweep_write and sweep_read; no change on serve_warm"},
	{Name: "pfs.gpfs_write.ns_per_op", Unit: "ns", Better: "lower", Moves: movesWrite},
	{Name: "pfs.lustre_write.ns_per_op", Unit: "ns", Better: "lower", Moves: movesWrite},
	{Name: "pfs.gpfs_read.ns_per_op", Unit: "ns", Better: "lower", Moves: movesRead},
	{Name: "pfs.metaop.ns_per_op", Unit: "ns", Better: "lower", Moves: movesBoth},
	{Name: "pfs.durable_write_sync.ns_per_op", Unit: "ns", Better: "lower", Moves: "lat_p50_ms on serve_cold only when specs checkpoint; no change on any workload today"},
	{Name: "memsys.memcpy.ns_per_op", Unit: "ns", Better: "lower", Moves: movesWrite},

	{Name: "taskengine.push_wait.ns_per_task", Unit: "ns", Better: "lower", Moves: movesAsyncW},
	{Name: "taskengine.push_wait.allocs_per_task", Unit: "count", Better: "lower", Moves: movesAsyncW},
	{Name: "asyncvol.write_enqueue.ns_per_op", Unit: "ns", Better: "lower", Moves: movesAsyncW},
	{Name: "asyncvol.write_drain.ns_per_op", Unit: "ns", Better: "lower", Moves: movesAsyncW},
	{Name: "asyncvol.write.allocs_per_op", Unit: "count", Better: "lower", Moves: movesAsyncW},
	{Name: "asyncvol.prefetch_read.ns_per_op", Unit: "ns", Better: "lower", Moves: movesRead},

	{Name: "hdf5.write_contig.ns_per_op", Unit: "ns", Better: "lower", Moves: movesWrite},
	{Name: "hdf5.write_contig.allocs_per_op", Unit: "count", Better: "lower", Moves: "allocs_per_event on sweep_write; no change on serve_warm"},
	{Name: "hdf5.write_contig.mb_per_s", Unit: "MB/s", Better: "higher", Moves: "none on the sweeps (they discard bytes); lat_p50_ms on serve_cold only for materialized runs"},
	{Name: "hdf5.write_chunked.ns_per_op", Unit: "ns", Better: "lower", Moves: movesMeta},
	{Name: "hdf5.read_contig.ns_per_op", Unit: "ns", Better: "lower", Moves: movesRead},
	{Name: "hdf5.create_dataset.ns_per_op", Unit: "ns", Better: "lower", Moves: movesMeta},
	{Name: "btree.insert.ns_per_op", Unit: "ns", Better: "lower", Moves: movesMeta},
	{Name: "ioreq.pipeline.ns_per_req", Unit: "ns", Better: "lower", Moves: movesBoth},
	{Name: "ioreq.pipeline.allocs_per_req", Unit: "count", Better: "lower", Moves: "allocs_per_event on sweep_write and sweep_read; no change on serve_warm"},
	{Name: "ioreq.agg.ns_per_req", Unit: "ns", Better: "lower", Moves: "none on the five workloads (aggregation is off in them); abl-agg only"},
	{Name: "ioreq.retry_clean.ns_per_req", Unit: "ns", Better: "lower", Moves: "ns_per_event on serve_cold sweeps (a faults seed attaches the retry stage); no change on sweep_write"},
	{Name: "vol.native_write.ns_per_op", Unit: "ns", Better: "lower", Moves: "ns_per_event on sweep_write (sync points); no change on serve_warm"},

	{Name: "experiments.point_sync.ns_per_event", Unit: "ns", Better: "lower", Moves: movesWall},
	{Name: "experiments.point_sync.allocs_per_event", Unit: "count", Better: "lower", Moves: "allocs_per_event on sweep_write; no change on serve_warm"},
	{Name: "experiments.point_async.ns_per_event", Unit: "ns", Better: "lower", Moves: movesWall},
	{Name: "experiments.point_async.allocs_per_event", Unit: "count", Better: "lower", Moves: "allocs_per_event on sweep_write; no change on serve_warm"},
	{Name: "experiments.assemble.ms_per_table", Unit: "ms", Better: "lower", Moves: "wall_s on the sweeps by well under 1 %; lat_p50_ms (dedupe) on serve_warm"},
	{Name: "experiments.render.us_per_table", Unit: "us", Better: "lower", Moves: "lat_p50_ms (dedupe) on serve_warm; under 0.1 % of wall_s on the sweeps"},

	{Name: "tax.critpath.wall_ratio", Unit: "ratio", Better: "lower", Moves: movesExport},
	{Name: "tax.consistency_posix.wall_ratio", Unit: "ratio", Better: "lower", Moves: "none on the five workloads (no spec sets consistency); abl-consistency only"},
	{Name: "tax.consistency_check.wall_ratio", Unit: "ratio", Better: "lower", Moves: "none on the five workloads (no spec sets check=1); abl-consistency only"},
	{Name: "tax.faults_retry.wall_ratio", Unit: "ratio", Better: "lower", Moves: "wall_s of the cold_sweep class on serve_cold; no change on the sweeps"},
	{Name: "metrics.counter_add.ns_per_op", Unit: "ns", Better: "lower", Moves: "ns_per_event on the sweeps and lat_p50_ms on serve_cold; no change on serve_warm"},
	{Name: "metrics.counter_add_series.ns_per_op", Unit: "ns", Better: "lower", Moves: movesExport},
	{Name: "metrics.hist_observe.ns_per_op", Unit: "ns", Better: "lower", Moves: "ns_per_event on the sweeps and lat_p50_ms on serve_cold; no change on serve_warm"},
	{Name: "metrics.write_csv.ns_per_sample", Unit: "ns", Better: "lower", Moves: movesExport},
	{Name: "critpath.record.ns_per_edge", Unit: "ns", Better: "lower", Moves: movesExport},
	{Name: "critpath.profile.ns_per_edge", Unit: "ns", Better: "lower", Moves: movesExport},
	{Name: "perfetto.write.ns_per_span", Unit: "ns", Better: "lower", Moves: movesExport},
	{Name: "trace.write_csv.ns_per_record", Unit: "ns", Better: "lower", Moves: movesExport},

	{Name: "recovery.frame_append.mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesAppend},
	{Name: "recovery.frame_decode.mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesRecov},
	{Name: "recovery.journal_append.ns_per_record", Unit: "ns", Better: "lower", Moves: "none on the five workloads (no spec journals); crashsweep only"},
	{Name: "recovery.scan.ns_per_record", Unit: "ns", Better: "lower", Moves: "none on the five workloads (no spec journals); crashsweep only"},
	{Name: "store.put.ns_per_op", Unit: "ns", Better: "lower", Moves: movesAppend},
	{Name: "store.put.mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesAppend},
	{Name: "store.flush.mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesAppend},
	{Name: "store.get.us_per_op", Unit: "us", Better: "lower", Moves: movesRecov},
	{Name: "store.open_scan.mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesRecov},
	{Name: "store.compact.mb_per_s", Unit: "MB/s", Better: "higher", Moves: "none on the five workloads (nothing is overwritten, so nothing compacts); long-lived daemons only"},

	{Name: "campaign.decode_spec.us_per_op", Unit: "us", Better: "lower", Moves: movesWarm},
	{Name: "campaign.cache_get.ns_per_op", Unit: "ns", Better: "lower", Moves: movesWarm},
	{Name: "campaign.cache_put.ns_per_op", Unit: "ns", Better: "lower", Moves: movesCold},
	{Name: "campaign.compute_run.ms_per_op", Unit: "ms", Better: "lower", Moves: movesCold},
	{Name: "campaign.compute_run.bundle_kb", Unit: "KB", Better: "lower", Moves: "rss_peak_mb and lat_p99_ms (artifact) on serve_warm, req_per_s on serve_cold"},
	{Name: "campaign.assemble_table.us_per_op", Unit: "us", Better: "lower", Moves: movesWarm},
	{Name: "campaign.decode_bundle.us_per_op", Unit: "us", Better: "lower", Moves: "lat_p99_ms (artifact) and req_per_s on serve_warm; none on the sweeps"},
	{Name: "campaign.class.dedupe.p50_us", Unit: "us", Better: "lower", Moves: "lat_p50_ms on serve_warm; none on the sweeps"},
	{Name: "campaign.class.lru.p50_us", Unit: "us", Better: "lower", Moves: movesWarm},
	{Name: "campaign.class.artifact.p50_us", Unit: "us", Better: "lower", Moves: "lat_p99_ms on serve_warm; none on the sweeps"},
	{Name: "campaign.class.recovered.p50_us", Unit: "us", Better: "lower", Moves: movesWarm},
	{Name: "campaign.class.cold_run.p50_ms", Unit: "ms", Better: "lower", Moves: movesCold},
	{Name: "campaign.class.cold_sweep.p50_ms", Unit: "ms", Better: "lower", Moves: "lat_p99_ms on serve_cold; none on serve_warm"},
	{Name: "campaign.cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesWarm},
	{Name: "campaign.store.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesWarm},

	{Name: "campaign.recover.ms_per_restart", Unit: "ms", Better: "lower", Moves: "recover_s, wall_s and req_per_s on serve_warm; no change elsewhere"},
	{Name: "benchmark.workload.rss_peak_mb", Unit: "MB", Better: "lower", Moves: "is rss_peak_mb of the workload of the run, read before the probes start; campaign.compute_run.bundle_kb moves it on the service workloads"},
	{Name: "benchmark.trace_overhead.ratio", Unit: "ratio", Better: "lower", Moves: "none: it is the cost of the benchmark's own spans on the workload of the run"},
}
