// Package fixcyc holds cycleaccount golden fixtures. bad.go carries
// one function per violation kind; each // want line is the expected
// diagnostic.
package fixcyc

import (
	"os/exec"
	"sync"
	"time"

	"repro/internal/sim"
)

// sleeper stalls the whole event kernel in host time.
func sleeper(p *sim.Proc) {
	time.Sleep(time.Millisecond) // want `time.Sleep in a \*sim.Proc function`
}

// wallClock smuggles host timing into simulated results.
func wallClock(p *sim.Proc) sim.Time {
	t0 := time.Now() // want `wall-clock time.Now in a \*sim.Proc function`
	_ = t0
	return p.Now()
}

// chanRecv parks the goroutine behind the event kernel's back.
func chanRecv(p *sim.Proc, ch chan int) int {
	return <-ch // want `channel receive in a \*sim.Proc function`
}

// chanSend: the sending side blocks just the same.
func chanSend(p *sim.Proc, ch chan int) {
	ch <- 1 // want `channel send in a \*sim.Proc function`
}

// selectWait: select is a multi-way park.
func selectWait(p *sim.Proc, done chan struct{}) {
	select { // want `select in a \*sim.Proc function`
	case <-done: // want `channel receive in a \*sim.Proc function`
	default:
	}
}

// chanDrain: ranging a channel blocks per element.
func chanDrain(p *sim.Proc, ch chan int) (n int) {
	for range ch { // want `range over a channel in a \*sim.Proc function`
		n++
	}
	return n
}

// locker blocks on an OS mutex, bypassing simulated time.
func locker(p *sim.Proc, mu *sync.Mutex) {
	mu.Lock() // want `\(\*sync.Mutex\).Lock in a \*sim.Proc function`
	defer mu.Unlock()
}

// waiter blocks on a WaitGroup.
func waiter(p *sim.Proc, wg *sync.WaitGroup) {
	wg.Wait() // want `\(\*sync.WaitGroup\).Wait in a \*sim.Proc function`
}

// spawner forks a process: unbounded host-time work.
func spawner(p *sim.Proc) error {
	cmd := exec.Command("hostname") // want `os/exec in a \*sim.Proc function`
	return cmd.Run()                // want `os/exec in a \*sim.Proc function`
}

// procWorker proves methods count: parameters are scanned the same way
// regardless of the receiver.
type procWorker struct{ p *sim.Proc }

func (w procWorker) step(p *sim.Proc) {
	time.Sleep(1) // want `time.Sleep in a \*sim.Proc function`
}
