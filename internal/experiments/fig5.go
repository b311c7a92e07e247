package experiments

import (
	"fmt"

	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// Fig5Row is one bar group of Fig. 5: host memory bandwidth consumed by
// a 3.5 GB/s DMA write stream under a DDIO x TPH configuration.
type Fig5Row struct {
	DDIO, TPH         bool
	ReadGBs, WriteGBs float64
}

// Fig5 reproduces the PCIe-bench experiment of Sec. III-D: an FPGA
// DMA-writes random 256 B packets to a 1 GB host DRAM buffer at a
// constant 3.5 GB/s; host memory read/write bandwidth is observed for
// the four DDIO/TPH combinations. Only DDIO-off + TPH-off should show
// ~3.5 GB/s on both channels (write-allocate reads plus the writes);
// any cache-steered configuration leaves only the eviction trickle.
func Fig5() []Fig5Row {
	rows, jobs := fig5Plan()
	runner.MustRun(0, jobs)
	return rows
}

// fig5Point streams the DMA writes against one DDIO/TPH configuration
// on a private memory system: a two-partition engine cut along the
// PCIe link, with the FPGA packet generator on one side and the host
// memory system on the other. The link lookahead is one packet's
// serialization quantum at the stream rate — the generator cannot land
// a packet earlier than one interval after issuing it — and the window
// batches ~256 packets of run-ahead per epoch barrier.
//
// The 1 GB DMA target is a phantom region: steering reads only the
// region kind, never the bytes, so the buffer carries no backing
// storage (the old backed buffer was 99% of this figure's wall clock in
// page-zeroing and all of its 2.1 GB peak RSS across the four sweep
// points).
func fig5Point(ddio, tph bool) Fig5Row {
	const (
		rate     = 3.5e9
		pkt      = 256
		duration = 2 * sim.Millisecond
	)
	pktSec := float64(pkt) / rate
	interval := sim.Duration(pktSec * float64(sim.Second))
	packets := int(duration / interval)

	space := memspace.New()
	buf := space.AllocPhantom("dma-buf", 1<<30, memspace.KindDRAM)
	sys := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("dram", 6, 128e9, 90*sim.Nanosecond),
		LLC:   memdev.NewLLC("llc", 300e9, 20*sim.Nanosecond),
	}
	sys.LLC.DDIOEnabled = ddio
	rng := sim.NewRNG(0xF165)

	eng := sim.NewEngine(0xF165)
	eng.SetWindow(256 * interval)
	var wire *sim.Link
	issued := 0
	clock := sim.Time(0)
	gen := eng.AddPartition("fpga-dma", 0, func(p *sim.Partition, horizon sim.Time) {
		for ; clock < horizon && issued < packets; issued++ {
			off := memspace.Addr(rng.Uint64n(uint64(buf.Size/pkt))) * pkt
			p.Post(wire, sim.Msg{At: clock + interval, Payload: uint64(buf.Base + off)})
			clock += interval
		}
		if issued == packets {
			p.SetNext(sim.MaxTime)
		} else {
			p.SetNext(clock)
		}
	})
	host := eng.AddPartition("host-mem", sim.MaxTime, func(p *sim.Partition, _ sim.Time) {
		for _, m := range p.Recv() {
			sys.DMAWrite(m.At, memspace.Addr(m.Payload), pkt, tph)
		}
	})
	wire = eng.Connect(gen, host, interval)
	eng.Run()

	secs := (sim.Time(packets) * interval).Seconds()
	bypass := float64(sys.LLC.MemoryBypassBytes())
	evicted := float64(sys.LLC.EvictedBytes())
	return Fig5Row{
		DDIO: ddio,
		TPH:  tph,
		// Memory-bypass DMA performs write-allocate reads plus the data
		// writes; cache-steered DMA only trickles evictions.
		ReadGBs:  bypass / secs / 1e9,
		WriteGBs: (bypass + evicted) / secs / 1e9,
	}
}

// fig5Plan enumerates the four DDIO x TPH combinations as runner jobs.
func fig5Plan() ([]Fig5Row, []runner.Job) {
	combos := []struct{ ddio, tph bool }{
		{false, false}, {false, true}, {true, false}, {true, true},
	}
	rows := make([]Fig5Row, len(combos))
	jobs := runner.Jobs("fig5", len(combos),
		func(i int) string { return fmt.Sprintf("ddio=%v/tph=%v", combos[i].ddio, combos[i].tph) },
		func(i int) { rows[i] = fig5Point(combos[i].ddio, combos[i].tph) })
	return rows, jobs
}

// Fig5Spec exposes the sweep for a shared pool.
func Fig5Spec() Spec {
	rows, jobs := fig5Plan()
	return Spec{ID: "fig5", Jobs: jobs, Table: func() *Table { return fig5Render(rows) }}
}

func fig5Render(rows []Fig5Row) *Table {
	t := &Table{
		ID:      "fig5",
		Title:   "Host memory bandwidth under 3.5 GB/s DMA writes (DDIO x TPH)",
		Columns: []string{"DDIO", "TPH", "mem read GB/s", "mem write GB/s"},
		Notes: []string{
			"paper: ~3.5 GB/s read+write only when both DDIO and TPH are off; otherwise little memory traffic",
		},
	}
	onoff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	for _, r := range rows {
		t.AddRow(onoff(r.DDIO), onoff(r.TPH), fmt.Sprintf("%.2f", r.ReadGBs), fmt.Sprintf("%.2f", r.WriteGBs))
	}
	return t
}
