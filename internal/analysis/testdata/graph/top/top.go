// Package top is the apex of the diamond fixture.
package top

import (
	"base"
	"left"
	"right"
)

// Top is the hot root; everything it reaches — through either arm,
// through the method value, and through the local hops below — is on
// its hot path.
//
//mnoclint:hot
func Top(ch chan int, p *int) {
	left.Via(ch)
	right.Also(ch)
	_ = right.Handle()
	writer(p)
}

// writer only mutates p one hop further down.
func writer(p *int) { base.Write(p) }

// The next directive is attached to a var, not a function: BuildModule
// must report it as an orphan.
//
//mnoclint:hot
var orphan = 0

var _ = orphan
