package main

import (
	"time"

	"rambda/internal/obs"
)

// layer names one module boundary the traced run times from outside.
type layer uint8

const (
	layerDriver    layer = iota // sim.ClosedLoop.Run minus its request callbacks
	layerGen                    // sim.Zipf / sim.RNG request generation
	layerTransport              // core.Client.Call minus the AppFunc
	layerAppCtx                 // core.AppCtx.Compute/Read/Write
	layerCodec                  // kvs.Append*/Decode* on both sides of the wire
	layerHash                   // kvs.ApplyScratch on kvs.Store
	layerLSMGet                 // kvs.ApplyScratch on lsm.DB, OpGet
	layerLSMPut                 // kvs.ApplyScratch on lsm.DB, OpPut
	layerLSMScan                // kvs.ApplyScratch on lsm.DB, OpScan
	layerMaintain               // lsm.DB.Maintain
	layerGlue                   // the benchmark's own callback and AppFunc bodies (validation, replay loop)
	numLayers
)

var layerNames = [numLayers]string{
	layerDriver:    "host.sim.driver_s",
	layerGen:       "host.sim.gen_s",
	layerTransport: "host.core.transport_s",
	layerAppCtx:    "host.core.appctx_s",
	layerCodec:     "host.kvs.codec_s",
	layerHash:      "host.kvs.hash_s",
	layerLSMGet:    "host.lsm.get_s",
	layerLSMPut:    "host.lsm.put_s",
	layerLSMScan:   "host.lsm.scan_s",
	layerMaintain:  "host.lsm.maintain_s",
	layerGlue:      "host.bench.glue_s",
}

type hostFrame struct {
	l     layer
	start time.Duration
	child time.Duration
}

// hostSpans accumulates host-time self time per layer: a span's
// duration minus the spans nested inside it. Every measured nanosecond
// is credited to exactly one layer, so the self times of a traced
// measured phase add up to that phase. Disabled, push and pop are one
// branch each.
type hostSpans struct {
	on       bool
	epoch    time.Time
	self     [numLayers]time.Duration
	stack    []hostFrame
	pausedAt time.Duration
}

func newHostSpans(on bool) *hostSpans {
	return &hostSpans{on: on, epoch: time.Now(), stack: make([]hostFrame, 0, 16)}
}

func (h *hostSpans) push(l layer) {
	if !h.on {
		return
	}
	h.stack = append(h.stack, hostFrame{l: l, start: time.Since(h.epoch)})
}

func (h *hostSpans) pop() {
	if !h.on {
		return
	}
	now := time.Since(h.epoch)
	n := len(h.stack) - 1
	f := h.stack[n]
	h.stack = h.stack[:n]
	d := now - f.start
	h.self[f.l] += d - f.child
	if n > 0 {
		h.stack[n-1].child += d
	}
}

// pause and resume bracket work that belongs to no layer (the
// reference laps): resume shifts every open span's start past the gap.
func (h *hostSpans) pause() {
	if h.on {
		h.pausedAt = time.Since(h.epoch)
	}
}

func (h *hostSpans) resume() {
	if !h.on {
		return
	}
	gap := time.Since(h.epoch) - h.pausedAt
	for i := range h.stack {
		h.stack[i].start += gap
	}
}

// stageMetrics are the virtual-time pipeline stages reported as shares
// of the traced window's total self time.
var stageMetrics = []obs.Stage{obs.StageNIC, obs.StageWire, obs.StageRing, obs.StageNotify,
	obs.StageCompute, obs.StageMemory, obs.StageScan, obs.StageCompaction}
