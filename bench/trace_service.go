package main

import (
	"context"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/service"
)

// traceService is the traced run of the two service workloads. The
// first part drives the workload's own closed loop against a real
// daemon with client-side spans on (one op = one request id); the
// second times the in-process layers the daemon is built from.
func traceService(cold bool) traceFunc {
	return func(e *env, w *workload, tr *tracer, budget time.Duration) (traceResult, error) {
		res := traceResult{metrics: make(map[string]float64)}
		if err := w.setup(e); err != nil {
			return res, err
		}
		e.tr = tr
		win, err := measure(e, w, budget*6/10)
		e.tr = nil
		if err != nil {
			return res, err
		}
		var durs, submits []float64
		for _, r := range win.ops {
			res.attempted++
			if r.err != nil {
				res.failed++
				continue
			}
			durs = append(durs, ms(r.dur))
			submits = append(submits, ms(r.submitDone))
		}
		if res.failed == 0 {
			if err := w.verify(e); err != nil {
				return res, err
			}
		}
		if rss, err := procPeakRSSKiB(e.daemon.cmd.Process.Pid); err == nil {
			res.metrics["service.daemon_rss.mb"] = float64(rss) / 1024
		}
		e.stopDaemon()

		for name, v := range medianSelfMS(tr.spans) {
			if name != "service.op" {
				res.metrics[name+".ms"] = v
			}
		}
		ops := float64(max(len(durs), 1))
		res.metrics["service.stream.events"] = tr.counts["service.stream.events"] / ops
		res.metrics["service.stream.bytes"] = tr.counts["service.stream.bytes"] / ops
		res.metrics["service.stream.events_per_s"] = tr.counts["service.stream.events"] / win.busy.Seconds()
		res.metrics["service.submit_done.ms_p50"] = median(submits)
		if p, ok := highPercentile(len(durs)); ok {
			res.metrics["service.op.ms_hi"] = percentile(durs, p)
		}

		// service.Execute over the compiled suite on a MemBackend at nproc
		// workers: the twin of campaign.plan_run_* on the campaign path.
		mem := campaign.NewMemBackend()
		cost, err := executeSuite(e.seed, e.nproc, mem)
		if err != nil {
			return res, err
		}
		if cold {
			res.metrics["service.execute_cold.ms"] = ms(cost)
			res.metrics["service.coordinator_next.ns"] = coordinatorNext(e.nproc)
			return res, nil
		}
		if cost, err = executeSuite(e.seed, e.nproc, mem); err != nil {
			return res, err
		}
		res.metrics["service.execute_warm.ms"] = ms(cost)
		for _, subs := range []int{1, 100, 1000} {
			res.metrics["obs.broadcast_observe_"+strconv.Itoa(subs)+".ns"] = broadcastObserve(subs)
		}
		res.metrics["obs.append_json.ns"] = appendJSON()
		return res, nil
	}
}

// executeSuite times service.Execute alone over a freshly compiled
// suite against be, with the observer pair the daemon attaches.
func executeSuite(seed uint64, nproc int, be campaign.Backend) (time.Duration, error) {
	plans, err := compileSuite(seed, nproc)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, plan := range plans {
		bc := obs.NewBroadcast()
		_, err := service.Execute(context.Background(), plan, service.ExecOptions{
			Workers: nproc, Cache: be, Observer: obs.Tee(obs.NewReplaySink(), bc),
		})
		bc.Close()
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// coordinatorNext is the cost of one Coordinator.Next claim, workers
// taking turns on one goroutine (no contention: the floor of the cost).
func coordinatorNext(workers int) float64 {
	const n = 1 << 18
	c := service.NewCoordinator(n, workers, nil)
	start := time.Now()
	claimed := 0
	for w := 0; ; w = (w + 1) % workers {
		if _, ok := c.Next(w); !ok {
			break
		}
		claimed++
	}
	return float64(time.Since(start)) / float64(claimed)
}

// broadcastObserve is the cost of one Broadcast.Observe call with subs
// subscribers attached, each with room for the event (the non-lagging
// path every streamed event of service-repeat takes). Buffers are
// drained between timed bursts.
func broadcastObserve(subs int) float64 {
	const burst, bursts = 128, 32
	bc := obs.NewBroadcast()
	defer bc.Close()
	feeds := make([]*obs.Subscription, subs)
	for i := range feeds {
		feeds[i] = bc.Subscribe(burst)
	}
	ev := obs.Event{Kind: obs.KindTrialFinish, Cell: 7, Trial: 3, Silent: true, Legit: true, Step: 12345, Round: 67}
	var timed time.Duration
	for b := 0; b < bursts; b++ {
		start := time.Now()
		for i := 0; i < burst; i++ {
			bc.Observe(ev)
		}
		timed += time.Since(start)
		for _, f := range feeds {
			for i := 0; i < burst; i++ {
				<-f.C
			}
		}
	}
	return float64(timed) / (burst * bursts)
}

// appendJSON is the cost of encoding one trial-finish event for the
// live stream into a reused buffer.
func appendJSON() float64 {
	const n = 1 << 20
	ev := obs.Event{Kind: obs.KindTrialFinish, Cell: 7, Trial: 3, Silent: true, Legit: true, Step: 12345, Round: 67}
	var buf []byte
	start := time.Now()
	for i := 0; i < n; i++ {
		ev.Step = i
		buf = ev.AppendJSON(buf[:0])
	}
	sink = buf
	return float64(time.Since(start)) / n
}

// sink keeps measured results alive so the compiler cannot drop the
// calls that produce them.
var sink any
