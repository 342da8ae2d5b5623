package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcRunsAndFinishes(t *testing.T) {
	e := NewEngine()
	ran := false
	p := e.Spawn("worker", func(p *Proc) { ran = true })
	e.Run()
	if !ran || !p.Done() {
		t.Fatalf("ran=%v done=%v", ran, p.Done())
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != 100*Microsecond {
		t.Errorf("woke at %v", woke)
	}
}

func TestProcSuspendWake(t *testing.T) {
	e := NewEngine()
	var order []string
	p := e.Spawn("waiter", func(p *Proc) {
		order = append(order, "before")
		p.Suspend()
		order = append(order, "after")
	})
	e.At(50, "waker", func() {
		order = append(order, "wake")
		p.Wake()
	})
	e.Run()
	want := []string{"before", "wake", "after"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcUseChargesServer(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "cpu")
	var done Time
	e.Spawn("compute", func(p *Proc) {
		p.Use(s, 500)
		done = p.Now()
	})
	e.Run()
	if done != 500 {
		t.Errorf("compute finished at %v", done)
	}
	if s.BusyTotal() != 500 {
		t.Errorf("server busy %v", s.BusyTotal())
	}
}

func TestProcUseCycles(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "host", 550e6)
	e.Spawn("compute", func(p *Proc) { p.UseCycles(c, 550) })
	e.Run()
	if e.Now() != 1000 {
		t.Errorf("550 cycles at 550 MHz ended at %v ns", int64(e.Now()))
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(10)
				}
			})
		}
		e.Run()
		return trace
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestProcProducerConsumer(t *testing.T) {
	e := NewEngine()
	var queue []int
	var consumer *Proc
	consumed := []int{}
	consumer = e.Spawn("consumer", func(p *Proc) {
		for len(consumed) < 5 {
			for len(queue) == 0 {
				p.Suspend()
			}
			v := queue[0]
			queue = queue[1:]
			consumed = append(consumed, v)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			item := i
			// Hand off via an engine event, as a device would.
			p.Engine().After(0, "deliver", func() {
				queue = append(queue, item)
				if !consumer.Done() {
					consumer.Wake()
				}
			})
		}
	})
	e.Run()
	if len(consumed) != 5 {
		t.Fatalf("consumed %v", consumed)
	}
	for i, v := range consumed {
		if v != i {
			t.Fatalf("consumed %v", consumed)
		}
	}
}

func TestWakeDeadProcPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("short", func(p *Proc) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("Wake on dead proc did not panic")
		}
	}()
	p.Wake()
}

// TestProcPanicPropagates: a panic inside a process body re-raises out of
// Engine.Run on the caller's goroutine with its original value, instead of
// crashing the program from the process's own stack.
func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("buggy", func(p *Proc) {
		p.Sleep(10)
		panic("model bug in process")
	})
	defer func() {
		if r := recover(); r != "model bug in process" {
			t.Fatalf("recovered %v, want the process's panic value", r)
		}
		if !p.Done() {
			t.Error("panicked process not marked done")
		}
	}()
	e.Run()
	t.Fatal("Run returned normally after a process panicked")
}

// TestProcFatalEndsTest: t.Fatal (runtime.Goexit) inside a process ends the
// test as a failure instead of hanging the engine. The failing case runs in
// a child test binary so this test can assert on its outcome.
func TestProcFatalEndsTest(t *testing.T) {
	const childEnv = "SIM_PROC_FATAL_CHILD"
	if os.Getenv(childEnv) == "1" {
		e := NewEngine()
		e.Spawn("fatal", func(p *Proc) {
			p.Sleep(10)
			t.Fatal("fatal inside a process")
		})
		e.Run()
		t.Error("Run returned after t.Fatal in a process")
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestProcFatalEndsTest$", "-test.count=1", "-test.timeout=30s")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("child test hung:\n%s", out)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child test: err=%v, want exit status 1 (test failed)\n%s", err, out)
	}
	for _, want := range []string{"--- FAIL: TestProcFatalEndsTest", "fatal inside a process"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("child output lacks %q:\n%s", want, out)
		}
	}
	for _, bad := range []string{"Run returned", "timed out", "deadlock"} {
		if strings.Contains(string(out), bad) {
			t.Errorf("child output contains %q:\n%s", bad, out)
		}
	}
}

// TestProcSelfWakePanics: a process that Wakes itself while running is a
// misuse that must fail loudly, not deadlock.
func TestProcSelfWakePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("selfwake", func(p *Proc) { p.Wake() })
	defer func() {
		if recover() == nil {
			t.Error("self-Wake did not panic")
		}
	}()
	e.Run()
}

// TestWakeBeforeStartPanics: waking a process whose spawn event has not
// fired yet is a misuse that must fail loudly, not deadlock.
func TestWakeBeforeStartPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("unstarted", func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Error("Wake before start did not panic")
		}
	}()
	p.Wake()
}

// TestProcNoResidualGoroutines: processes that run to completion leave no
// coroutine behind once the engine quiesces, and processes spawned on an
// engine that never runs leave none either.
func TestProcNoResidualGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	idle := NewEngine()
	for i := 0; i < 8; i++ {
		idle.Spawn(fmt.Sprintf("idle%d", i), func(p *Proc) { p.Suspend() })
	}
	e := NewEngine()
	const n = 64
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Time(i))
			p.Suspend()
		})
	}
	// Wake each process out of its Suspend so every body returns.
	for i, p := range procs {
		e.At(Time(n+i), "release", p.Wake)
	}
	e.Run()
	for _, p := range procs {
		if !p.Done() {
			t.Fatalf("process %s did not finish", p.Name())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after teardown, want <= %d", got, before)
	}
}
