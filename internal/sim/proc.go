//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: application code written in blocking style
// (post a work request, wait for a completion) that interleaves
// deterministically with the event engine. Exactly one side — the engine
// or one process — runs at a time; control transfers are synchronous, so
// simulations stay reproducible.
//
// Each process is an iter.Pull coroutine. Wake resumes it through next,
// park hands control back through yield; the runtime switches directly
// between the two stacks without going through the scheduler. A panic or
// runtime.Goexit inside the process body re-raises on the engine's side
// of next, so it reaches whoever called Engine.Run (or par.Run's shard
// recovery) instead of killing the program from an orphan goroutine.
//
// The go1.23 build line at the top of this file raises its language
// version for iter; go.mod stays at go 1.22 (DESIGN §10.1).
type Proc struct {
	eng  *Engine
	name string
	dead bool

	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// Precomputed event names, so Sleep/Use in a poll loop don't
	// concatenate strings per call.
	sleepName, useName string

	// wakeFn is the one Wake closure, bound at spawn, so Sleep and Use
	// don't allocate a fresh closure per park.
	wakeFn func()
}

// Spawn starts fn as a simulated process at the current time. fn runs until
// it parks (Suspend, Sleep, Use) or returns; the engine then proceeds.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:       e,
		name:      name,
		sleepName: name + ".sleep",
		useName:   name + ".use",
	}
	p.wakeFn = func() { p.Wake() }
	e.After(0, "spawn:"+name, func() {
		// The coroutine is created here rather than in Spawn, so a process
		// whose engine never runs leaves no goroutine behind, and it is
		// created on the goroutine that resumes it (under par, the shard
		// worker, not the goroutine that built the cluster).
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() { p.dead = true }()
			fn(p)
		})
		p.next()
	})
	return p
}

// Name reports the process name.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has finished: returned,
// panicked or called runtime.Goexit.
func (p *Proc) Done() bool { return p.dead }

// park transfers control back to the engine until Wake.
func (p *Proc) park() { p.yield(struct{}{}) }

// Wake resumes a parked process and blocks (the engine) until it parks
// again or finishes. It must be called from engine context (an event
// callback), never from another process directly.
func (p *Proc) Wake() {
	if p.dead {
		panic(fmt.Sprintf("sim: Wake on finished process %q", p.name))
	}
	p.next()
}

// Suspend parks until some event calls Wake.
func (p *Proc) Suspend() { p.park() }

// Sleep parks for d of simulated time.
func (p *Proc) Sleep(d Time) {
	p.eng.After(d, p.sleepName, p.wakeFn)
	p.park()
}

// Use occupies a server (a CPU, typically) for d and parks until the work
// completes — modeling synchronous computation by this process.
func (p *Proc) Use(s *Server, d Time) {
	s.Do(d, p.useName, p.wakeFn)
	p.park()
}

// UseCycles occupies a CPU for the given cycle count.
func (p *Proc) UseCycles(c *CPU, cycles float64) {
	p.Use(c.Server, c.CycleTime(cycles))
}

// Now reports the engine clock.
func (p *Proc) Now() Time { return p.eng.Now() }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }
