// Package base is the sink of the diamond fixture: facts established
// here must reach package top through both left and right.
package base

import "time"

var stamp time.Time

// Tick reads the wall clock.
func Tick() { stamp = time.Now() }

// Spawn starts a goroutine.
func Spawn(ch chan int) {
	go func() { ch <- 1 }()
}

// Write mutates through p.
func Write(p *int) { *p = 1 }
