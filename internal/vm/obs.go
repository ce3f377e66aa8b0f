package vm

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide engine counters. They live at package level — a process can
// host several interpreters (stingd, tests) and the metrics registry wants
// one family per process either way.
var (
	compiledForms atomic.Uint64 // toplevel forms lowered to bytecode
	dispatchOps   atomic.Uint64 // instructions dispatched by exec loops
)

// NewCollector returns the bytecode-engine metrics source in the
// sting_vm_* family.
func NewCollector() obs.Collector {
	return obs.CollectorFunc(func() []obs.Metric {
		return []obs.Metric{
			obs.Counter("sting_vm_compiled_forms_total",
				"Toplevel forms compiled to bytecode by the vm engine.",
				float64(compiledForms.Load())),
			obs.Counter("sting_vm_dispatch_ops_total",
				"Bytecode instructions dispatched by VM exec loops.",
				float64(dispatchOps.Load())),
		}
	})
}

// Stats answers the engine counters (compiled, fallback, dispatched) for
// tests and ablation reports. The engine no longer declines forms, so
// fallback is always 0; the slot stays only because the benchmark harness
// reads it, and goes when the harness drops it.
func Stats() (compiled, fallback, dispatched uint64) {
	return compiledForms.Load(), 0, dispatchOps.Load()
}
