package sim

// Benchmark kernels for the engine's hot paths, shared between the
// package's testing.B benchmarks (sim_bench_test.go) and the
// cmd/rambda-bench harness, which times the same work via
// testing.Benchmark and records it in BENCH_*.json. Each kernel runs n
// operations and returns a value derived from the simulation so the
// compiler cannot elide the work.

// BenchAcquireGapFree drives n Acquires that never open or backfill an
// idle window: every arrival is at t=0, which never leads the server
// frontier. This isolates the frontier/heap path.
func BenchAcquireGapFree(n int) Time {
	r := NewResource("bench:gapfree", 4, 20*Nanosecond, 16e9, 100*Nanosecond)
	var done Time
	for i := 0; i < n; i++ {
		_, done = r.Acquire(0, 64)
	}
	return done
}

// BenchAcquireGapHeavy drives n Acquires through a churning gap
// population: periodic leaps past the frontier open idle windows,
// backdated arrivals backfill and split them.
func BenchAcquireGapHeavy(n int) Time {
	r := NewResource("bench:gapheavy", 2, 0, 16e9, 0)
	rng := NewRNG(42)
	now := Time(0)
	var done Time
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			// Leap ahead, opening an idle window behind the new op.
			now += Duration(rng.Intn(int(4*Microsecond)) + int(Microsecond))
			_, done = r.Acquire(now, 4096)
			continue
		}
		// Backdated arrival: lands inside or before recent windows.
		back := now - Duration(rng.Intn(int(8*Microsecond)))
		if back < 0 {
			back = 0
		}
		_, done = r.Acquire(back, rng.Intn(2048)+1)
	}
	return done
}

// BenchAcquireGapSaturated holds the gap table at its maxGaps capacity:
// every op records a fresh window (evicting the oldest) and no window
// is ever large enough to backfill, so every lookup is a miss. This was
// the flat slice's worst case — a full O(gaps) scan plus a 64 KiB
// memmove per op — and is the regression kernel for the O(1)
// oldest-drop.
func BenchAcquireGapSaturated(n int) Time {
	r := NewResource("bench:gapsat", 1, 0, 1e9, 0) // 1 byte = 1ns
	now := Time(0)
	var done Time
	for i := 0; i < n; i++ {
		// Occupancy 1us per op, arrivals 1.5us apart: each op opens an
		// unfillable 0.5us window behind itself.
		now += 1500 * Nanosecond
		_, done = r.Acquire(now, 1000)
	}
	return done
}

// BenchAcquireBehindFrontier drives n Acquires in the regime the
// serving figures put on RAMBDA's capacity-1 datapath resources
// (srv:upi, srv:accel:issue). Requests are walked in issue order, so one
// op in eight lands at the frontier and pushes it out, while the rest
// arrive 10-60 us behind it, among idle windows that earlier backfills
// of ~1 ns ops have cut into slivers. The gap table stays at its limit.
func BenchAcquireBehindFrontier(n int) Time {
	r := NewResource("bench:behind", 1, 0, 50e9, 0) // 64 B = 1.28 ns
	rng := NewRNG(17)
	front := 60 * Microsecond
	var done Time
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			front += Duration(rng.Intn(int(200*Nanosecond))) + 5*Nanosecond
			_, done = r.Acquire(front, 64)
			continue
		}
		back := front - 10*Microsecond - Duration(rng.Intn(int(50*Microsecond)))
		_, done = r.Acquire(back, rng.Intn(128)+1)
	}
	return done
}

// BenchClosedLoop runs one closed loop of ~n requests (32 clients over
// a capacity-4 resource with jittered think time), exercising the
// event-heap push/pop per request alongside placement.
func BenchClosedLoop(n int) float64 {
	per := n / 32
	if per < 1 {
		per = 1
	}
	r := NewResource("bench:srv", 4, 2*Microsecond, 0, 0)
	res := ClosedLoop{
		Clients:   32,
		PerClient: per,
		Think:     Microsecond,
		Jitter:    Microsecond,
		Stagger:   100 * Nanosecond,
	}.Run(func(_ int, issue Time) Time {
		_, done := r.Acquire(issue, 0)
		return done
	})
	return res.Throughput
}

// BenchHistogramRecord records n samples through the thinning path
// (cap 1<<16, so large n exercises several stride doublings).
func BenchHistogramRecord(n int) Time {
	h := NewHistogram(1 << 16)
	rng := NewRNG(7)
	for i := 0; i < n; i++ {
		h.Record(Duration(rng.Intn(int(Millisecond))))
	}
	return h.Max()
}

// BenchHistogramPercentile queries P50/P99/P999 n times on a 32k-sample
// histogram — the per-sweep-point reporting pattern, which the cached
// sorted view turns from three sorts into one.
func BenchHistogramPercentile(n int) Time {
	h := NewHistogram(0)
	rng := NewRNG(11)
	for i := 0; i < 1<<15; i++ {
		h.Record(Duration(rng.Intn(int(Millisecond))))
	}
	var acc Time
	for i := 0; i < n; i++ {
		acc += h.P50() + h.P99() + h.P999()
	}
	return acc
}

// BenchRNG draws n raw values from the xoshiro core. Besides covering
// the innermost stochastic primitive, rambda-bench uses this kernel as
// the machine-speed calibration reference: regression checks compare
// each microbenchmark's ns/op normalized by this kernel's, so a
// committed baseline stays meaningful on faster or slower hardware.
func BenchRNG(n int) uint64 {
	rng := NewRNG(1)
	var acc uint64
	for i := 0; i < n; i++ {
		acc += rng.Uint64()
	}
	return acc
}

// BenchParallelEpochBarrier measures the fixed cost of one epoch of the
// partitioned engine — horizon computation, worker dispatch, and the
// ordered mailbox merge — by circulating n messages around a 4-stop
// ring, one ring injection per epoch (every link shares one lookahead,
// so the horizon advances exactly one message spacing per barrier).
// This bounds how fine-grained a partition cut can afford to be: a cut
// only pays off when the work inside an epoch exceeds this overhead.
// The kernel pins the worker count to 2 for the duration so the number
// it reports is comparable across -sim-parallel settings and machines
// with different core counts.
func BenchParallelEpochBarrier(n int) uint64 {
	prev := Parallel()
	SetParallel(2)
	defer SetParallel(prev)

	const parts = 4
	const la = Microsecond
	eng := NewEngine(0xE90C)
	eng.SetWindow(la) // one message spacing per barrier: n epochs for n messages
	ps := make([]*Partition, parts)
	rings := make([]*Link, parts)
	var acc [parts]uint64
	sent := 0
	clock := Time(0)
	ps[0] = eng.AddPartition("ring0", 0, func(p *Partition, horizon Time) {
		for _, m := range p.Recv() {
			acc[0] = acc[0]*1099511628211 ^ m.Payload
		}
		for ; clock < horizon && sent < n; sent++ {
			p.Post(rings[0], Msg{At: clock + la, Payload: p.RNG().Uint64(), Aux: 1})
			clock += la
		}
		if sent == n {
			p.SetNext(MaxTime)
		} else {
			p.SetNext(clock)
		}
	})
	for i := 1; i < parts; i++ {
		i := i
		ps[i] = eng.AddPartition("ring", MaxTime, func(p *Partition, _ Time) {
			for _, m := range p.Recv() {
				acc[i] = acc[i]*1099511628211 ^ m.Payload
				if m.Aux < parts {
					p.Post(rings[i], Msg{At: m.At + la, Payload: m.Payload, Aux: m.Aux + 1})
				}
			}
		})
	}
	for i := 0; i < parts; i++ {
		rings[i] = eng.Connect(ps[i], ps[(i+1)%parts], la)
	}
	eng.Run()
	out := uint64(eng.Epochs())
	for _, a := range acc {
		out = out*1099511628211 ^ a
	}
	return out
}

// BenchZipf draws n values from the paper's YCSB-style skewed key
// distribution.
func BenchZipf(n int) uint64 {
	z := NewZipf(NewRNG(3), 1<<16, 0.99)
	var acc uint64
	for i := 0; i < n; i++ {
		acc += z.Next()
	}
	return acc
}
