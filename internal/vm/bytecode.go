// Package vm is STING's bytecode engine for the computation sublanguage: a
// compiler that lowers Scheme forms — the STING concurrency forms included —
// to a compact instruction stream with lexically-addressed variable slots,
// constant pooling and tail-call elimination, plus a stack machine whose
// safepoints (calls and backward branches) feed the same poll budget as the
// tree-walker, so preemption, stealing and span inheritance behave
// identically under either engine.
//
// Both engines run the output of one syntax pass, scheme.Expand, which
// lowers every derived form to the core language; the compiler covers the
// whole core and never declines a form. The tree-walker in internal/scheme
// stays the executable reference semantics, and the two engines are
// differentially fuzzed against each other (internal/scheme FuzzEngines).
package vm

import (
	"fmt"
	"strings"

	"repro/internal/scheme"
)

// Opcode identifies one VM instruction.
type Opcode uint8

// The instruction set. Operands A and B are immediate int32s; stack effects
// are noted as [before] → [after].
const (
	// OpConst pushes Consts[A].
	OpConst Opcode = iota
	// OpUnspec pushes the unspecified value.
	OpUnspec
	// OpLocal pushes the slot B of the frame A levels up. [] → [v]
	OpLocal
	// OpSetLocal stores into slot B of the frame A levels up. [v] → [unspecified]
	OpSetLocal
	// OpInitSlot pops into slot A of the current frame, naming an unnamed
	// closure after Consts[B] when B >= 0. [v] → []
	OpInitSlot
	// OpGlobal pushes the global named Consts[A]; unbound is an error.
	OpGlobal
	// OpSetGlobal assigns the nearest binding of Consts[A]. [v] → [unspecified]
	OpSetGlobal
	// OpDefGlobal defines Consts[A] in the global frame, naming unnamed
	// closures. [v] → [unspecified]
	OpDefGlobal
	// OpJump continues at A; a backward target is a safepoint.
	OpJump
	// OpJumpIfFalse pops and jumps to A when the value is falsy.
	OpJumpIfFalse
	// OpJumpTruthyKeep jumps to A keeping the top when truthy, else pops and
	// falls through (or).
	OpJumpTruthyKeep
	// OpJumpFalsyKeep jumps to A keeping the top when falsy, else pops and
	// falls through (and).
	OpJumpFalsyKeep
	// OpPop discards the top of stack.
	OpPop
	// OpClosure pushes a closure over Subs[A] capturing the current frame.
	OpClosure
	// OpCall calls with A arguments: [fn a1..aA] → [result]. A safepoint.
	OpCall
	// OpTailCall is OpCall reusing the current activation (safepoint); a
	// non-bytecode callee degrades to a plain call.
	OpTailCall
	// OpReturn pops the current activation: its top of stack is the result.
	OpReturn
	// OpPushFrame pushes a new frame of A slots, popping B staged values
	// into slots 0..B-1 (binding-form entry). [v1..vB] → []
	OpPushFrame
	// OpPopFrame restores the parent frame (binding-form exit).
	OpPopFrame
	// OpCaseMatch peeks the case key: when it is eqv? to any datum in
	// Consts[A] ([]Value) the key pops and execution falls through to the
	// clause body, else it jumps to B with the key kept.
	OpCaseMatch
	// OpPromise pushes a promise over the nullary Subs[A] (delay).
	OpPromise

	// STING concurrency instructions. Thunk operands are compiled closures.
	// OpFork forks a thread for the thunk; when A=1 a VP designator is on
	// top. [thunk vp?] → [thread]
	OpFork
	// OpCreateThread creates a delayed thread. [thunk] → [thread]
	OpCreateThread
	// OpFuture forks a result-parallel thread. [thunk] → [thread]
	OpFuture
	// OpSpawn deposits A sibling threads into a tuple space.
	// [ts thunk1..thunkA] → [threads]
	OpSpawn
	// OpNoPreempt runs the thunk with preemption disabled. [thunk] → [v]
	OpNoPreempt
	// OpNoInterrupt runs the thunk with interrupts disabled. [thunk] → [v]
	OpNoInterrupt
	// OpWithMutex holds the mutex around the thunk. [m thunk] → [v]
	OpWithMutex
	// OpFluid runs the thunk with the fluid Consts[A] bound. [v thunk] → [v]
	OpFluid
	// OpAtomic runs the thunk inside a transaction ((atomic ...) semantics:
	// flattening, conflict re-run, abort → #f). [thunk] → [v]
	OpAtomic
	// OpTuple runs the get/rd template match described by Consts[A] (a
	// *tupleSpec). [ts exprs... body?] → [v]
	OpTuple
)

var opNames = [...]string{
	OpConst: "const", OpUnspec: "unspec", OpLocal: "local",
	OpSetLocal: "set-local", OpInitSlot: "init-slot", OpGlobal: "global",
	OpSetGlobal: "set-global", OpDefGlobal: "def-global", OpJump: "jump",
	OpJumpIfFalse: "jump-if-false", OpJumpTruthyKeep: "jump-truthy-keep",
	OpJumpFalsyKeep: "jump-falsy-keep", OpPop: "pop", OpClosure: "closure",
	OpCall: "call", OpTailCall: "tail-call", OpReturn: "return",
	OpPushFrame: "push-frame", OpPopFrame: "pop-frame",
	OpCaseMatch: "case-match", OpPromise: "promise", OpFork: "fork",
	OpCreateThread: "create-thread", OpFuture: "future", OpSpawn: "spawn",
	OpNoPreempt: "no-preempt", OpNoInterrupt: "no-interrupt",
	OpWithMutex: "with-mutex", OpFluid: "fluid", OpAtomic: "atomic",
	OpTuple: "tuple",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one fixed-width instruction.
type Instr struct {
	Op   Opcode
	A, B int32
}

// Code is one compiled procedure (or toplevel form): its instruction
// stream, constant pool, and nested procedures.
type Code struct {
	Name    scheme.Symbol // for error messages and disassembly; may be empty
	Ops     []Instr
	Consts  []scheme.Value
	Subs    []*Code
	NParams int
	HasRest bool
	NSlots  int // frame size: params (+ rest) + internal-define slots
}

// Disassemble renders the code and its nested procedures for debugging.
func (c *Code) Disassemble() string {
	var b strings.Builder
	c.disasm(&b, "")
	return b.String()
}

func (c *Code) disasm(b *strings.Builder, indent string) {
	name := string(c.Name)
	if name == "" {
		name = "<anon>"
	}
	fmt.Fprintf(b, "%s%s: params=%d rest=%v slots=%d\n", indent, name, c.NParams, c.HasRest, c.NSlots)
	for i, op := range c.Ops {
		fmt.Fprintf(b, "%s  %3d  %-16s %d %d", indent, i, op.Op, op.A, op.B)
		switch op.Op {
		case OpConst, OpGlobal, OpSetGlobal, OpDefGlobal, OpFluid:
			fmt.Fprintf(b, "    ; %s", scheme.WriteString(c.Consts[op.A]))
		}
		b.WriteByte('\n')
	}
	for _, sub := range c.Subs {
		sub.disasm(b, indent+"    ")
	}
}
