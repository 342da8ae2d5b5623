// Package par is the conservative parallel runner for sharded simulations.
//
// A sharded cluster assigns every node to one of N shards, each shard
// owning a private sim.Engine. The runner advances all engines in lockstep
// epochs: with L the minimum latency any frame needs to cross between
// shards (the lookahead), and minNext the earliest pending event across all
// engines, every event fired in the epoch window [minNext, minNext+L-1]
// that hands work to another shard produces an arrival no earlier than
// minNext+L — strictly beyond the window. Shards therefore run the window
// concurrently without ever needing input from each other, and the
// cross-shard handoffs buffered during the window are injected at the
// barrier, before the next window is computed. Injection order is fixed by
// the Exchange hook (fabrics drain per-source mailboxes in attachment
// order), so the schedule — and every trace and counter derived from it —
// is a pure function of the workload and seeds, independent of how the OS
// interleaves the worker threads.
//
// This is the ONE simulated package where goroutines and sync primitives
// are legal (enforced by qpiplint's nogoroutine allowlist): all other model
// code still runs single-threaded inside exactly one engine, and the
// determinism argument reduces to the barrier algebra above.
package par

import (
	"fmt"

	"repro/internal/sim"
)

// runFree is the command telling a worker to drain its engine to quiescence
// (no horizon). Used when no unsevered cross-shard link exists, so every
// shard's schedule is already closed under its own events.
const runFree sim.Time = -1

// Config describes one parallel run.
type Config struct {
	// Engines are the shard engines, indexed by shard.
	Engines []*sim.Engine
	// Lookahead is the minimum cross-shard frame latency. Zero means no
	// unsevered cross-shard links exist: shards run free, one epoch.
	Lookahead sim.Time
	// Exchange injects all buffered cross-shard handoffs into their
	// destination engines and returns how many were injected. It is called
	// only between epochs, on the coordinating goroutine, with every worker
	// parked at the barrier. Nil means there is nothing to exchange.
	Exchange func() int
}

// worker owns one engine for the duration of a run. Commands carry the
// epoch horizon (or runFree); each command is answered on done, which also
// publishes the worker's memory writes back to the coordinator.
type worker struct {
	eng  *sim.Engine
	cmd  chan sim.Time
	done chan struct{}
	err  any // recovered panic, re-raised by the coordinator
}

func (w *worker) loop() {
	for horizon := range w.cmd {
		func() {
			returned := false
			defer func() {
				w.err = recover()
				if w.err == nil && !returned {
					// runtime.Goexit (t.FailNow in model code) is ending
					// this goroutine: answer the barrier once so the
					// coordinator raises it instead of waiting forever.
					w.err = "runtime.Goexit in shard engine"
					w.done <- struct{}{}
				}
			}()
			if horizon == runFree {
				w.eng.Run()
			} else {
				w.eng.RunUntil(horizon)
			}
			returned = true
		}()
		w.done <- struct{}{}
	}
}

// Run advances all engines to global quiescence using lockstep epochs.
// A model panic on any shard is re-raised on the caller's goroutine with
// the shard identified.
func Run(cfg Config) {
	if len(cfg.Engines) == 0 {
		return
	}
	RunUntil(cfg, -1)
}

// RunUntil is Run with an inclusive time limit: events with timestamps
// <= limit execute, then every shard clock is forced to limit (mirroring
// sim.Engine.RunUntil). A negative limit means no limit.
func RunUntil(cfg Config, limit sim.Time) {
	workers := make([]*worker, len(cfg.Engines))
	for i, eng := range cfg.Engines {
		w := &worker{eng: eng, cmd: make(chan sim.Time), done: make(chan struct{})}
		workers[i] = w
		go w.loop() // legal: internal/sim/par is nogoroutine's shard-runner allowlist
	}
	defer func() {
		for _, w := range workers {
			close(w.cmd)
		}
	}()

	epoch := func(horizon sim.Time) {
		for _, w := range workers {
			w.cmd <- horizon
		}
		for _, w := range workers {
			<-w.done
			if w.err != nil {
				panic(fmt.Sprintf("par: shard panicked: %v", w.err))
			}
		}
	}

	// Invariant at the top of each iteration: all cross-shard mailboxes are
	// empty (Exchange ran after the previous epoch; they start empty).
	for {
		minNext, any := nextAcross(cfg.Engines)
		if !any || (limit >= 0 && minNext > limit) {
			break
		}
		if cfg.Lookahead <= 0 {
			// No cross-shard links: one free-running epoch drains everything.
			if limit >= 0 {
				epoch(limit)
			} else {
				epoch(runFree)
			}
		} else {
			horizon := minNext + cfg.Lookahead - 1
			if limit >= 0 && horizon > limit {
				horizon = limit
			}
			epoch(horizon)
		}
		if cfg.Exchange != nil {
			cfg.Exchange()
		} else if cfg.Lookahead <= 0 {
			break // free-running with nothing to exchange: done in one epoch
		}
	}
	if limit >= 0 {
		// Mirror sequential RunUntil: force every clock to the limit.
		epoch(limit)
	}
}

// nextAcross reports the earliest pending event timestamp across engines.
func nextAcross(engines []*sim.Engine) (sim.Time, bool) {
	var minNext sim.Time
	any := false
	for _, e := range engines {
		if t, ok := e.NextAt(); ok && (!any || t < minNext) {
			minNext, any = t, true
		}
	}
	return minNext, any
}
