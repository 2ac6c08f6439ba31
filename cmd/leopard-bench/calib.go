package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is a few cores of a shared host, and
// how fast those cores execute changes with what the neighbours do: the
// processor time of one ed25519 signature went from 22 to 47 us and back
// within minutes while this was written, and the saturated workloads'
// goodput with it (README.md, "Machine speed"). A calibrator therefore runs
// beside every measured window: every calibratePeriod it does a fixed
// piece of work (the burst below: the operations the replicas spend their
// time in, on inputs that never change) on a thread of its own and adds up
// the processor time the thread was charged for it. The window's machine
// speed is refBurst over the mean burst time, and a closed loop's figures
// are reported at speed 1.
//
// It reads the thread's processor time, not the wall clock, so waiting for
// a processor behind the replicas' goroutines does not count; what counts is
// how long the processor took once the thread had it.

const (
	calibratePeriod = 25 * time.Millisecond
	// refBurst is the burst's processor time on the reference machine: what
	// the machine this was written on takes while its neighbours are quiet
	// and the benchmark itself keeps both cores busy.
	refBurst = 300 * time.Microsecond
)

type calibrator struct {
	stop, done chan struct{}
	ns, bursts atomic.Int64
}

// threadCPU is the processor time the calling thread has used.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// startCalibrator starts the calibration goroutine; close stops it and
// waits for it.
func startCalibrator() (*calibrator, error) {
	if _, err := threadCPU(); err != nil {
		return nil, errors.New("calibrator: cannot read the thread's processor time: " + err.Error())
	}
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c, nil
}

func (c *calibrator) run() {
	defer close(c.done)
	// The processor-time clock is the thread's, so the goroutine keeps it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	pub := priv.Public().(ed25519.PublicKey)
	msg := make([]byte, 64)
	src, dst := make([]byte, 32<<10), make([]byte, 32<<10)
	tick := time.NewTicker(calibratePeriod)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		began, _ := threadCPU()
		// The burst: four signatures, four copies and SHA-256 digests of
		// 32 KiB, two verifications.
		var sig []byte
		for i := 0; i < 4; i++ {
			sig = ed25519.Sign(priv, msg)
			copy(dst, src)
			sha256.Sum256(dst)
		}
		ed25519.Verify(pub, msg, sig)
		ed25519.Verify(pub, msg, sig)
		ended, _ := threadCPU()
		c.ns.Add(int64(ended - began))
		c.bursts.Add(1)
	}
}

func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// calMark is the calibrator's running total at one instant.
type calMark struct{ ns, bursts int64 }

func (c *calibrator) mark() calMark { return calMark{c.ns.Load(), c.bursts.Load()} }

// speedBetween is the machine speed between two marks: 1 on the reference
// machine, below 1 on a slower one. It is 0 if no burst ran in between.
func speedBetween(from, to calMark) float64 {
	if to.bursts <= from.bursts || to.ns <= from.ns {
		return 0
	}
	return float64(refBurst) * float64(to.bursts-from.bursts) / float64(to.ns-from.ns)
}
