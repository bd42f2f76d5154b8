package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is a fixed piece of Go work that belongs to the
// benchmark, not to the program, so no change to the program moves it.
// It runs before the first set-up, before every measured round and
// after the last. On a shared host the speed of Go code follows what
// other tenants do with the core's sibling thread, the caches and
// memory: on a 2-core host the same op took 2-3x longer, in CPU time
// as in host time, from one run to another minutes later, and the
// kernel slows down with it. The gated times are times at reference
// speed, the speed at which the kernel takes its nominal times.
//
// Code slows down by how much it leans on what the sibling thread and
// the other tenants take, so the kernel has two parts:
//
//   - the memory part, a pointer chase and hash-table probes over 32 MB
//     off the Go heap and a 1 MB sort, timed in CPU time on one
//     thread (nominal refMemoryNominal);
//   - the server part, a stdlib JSON handler served through httptest
//     to two closed-loop clients, timed as its median request latency
//     (nominal refServerNominal).
//
// A workload's times are scaled by each part's nominal over its median
// in the run, the two factors weighted geometrically as the workload
// works (workloadDef.refServer): sim-paper by the memory part alone,
// serve-warm by the server part alone, regen-quick by both equally.
const (
	refMemoryNominal = 50 * time.Millisecond
	refServerNominal = 50 * time.Microsecond
)

// Memory part sizes: 20 to 35 ms of CPU on a 2-core host.
const (
	refChaseWords = 4 << 20 // 16 MB cycle of uint32 indices
	refChaseSteps = 50_000
	refTableSlots = 2 << 20 // 16 MB open-addressing table of uint64 keys
	refTableKeys  = 1 << 20
	refProbes     = 100_000
	refSortWords  = 128 << 10 // 1 MB of int64
)

// Server part sizes: each client sends refServerRequests requests.
const (
	refServerClients  = 2
	refServerRequests = 150
	refServerKeys     = 16
	refServerCells    = 1024
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which
// package syscall does not name.
const clockThreadCPUTime = 3

// reference holds the kernel's data and its timings. The memory part's
// data lies off the Go heap, so that it leaves the program's
// garbage-collection pacing alone.
type reference struct {
	chase   []uint32
	table   []uint64
	probes  []uint64
	sortSrc []int64
	sortBuf []int64
	sink    uint64

	handler http.Handler
	bodies  [][]byte // the server part's requests

	// memory holds the memory part's CPU milliseconds and server the
	// server part's median latencies in microseconds, one per run.
	memory, server []float64
}

// newReference builds the kernel's data from a fixed seed.
func newReference() (*reference, error) {
	words := refChaseWords + refTableSlots*2 + refProbes*2 + refSortWords*4
	mem, err := syscall.Mmap(-1, 0, words*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	take := func(n int) unsafe.Pointer {
		p := unsafe.Pointer(&mem[0])
		mem = mem[n*4:]
		return p
	}
	r := &reference{
		chase:   unsafe.Slice((*uint32)(take(refChaseWords)), refChaseWords),
		table:   unsafe.Slice((*uint64)(take(refTableSlots*2)), refTableSlots),
		probes:  unsafe.Slice((*uint64)(take(refProbes*2)), refProbes),
		sortSrc: unsafe.Slice((*int64)(take(refSortWords*2)), refSortWords),
		sortBuf: unsafe.Slice((*int64)(take(refSortWords*2)), refSortWords),
	}
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(refChaseWords)
	for i, p := range perm {
		r.chase[p] = uint32(perm[(i+1)%len(perm)])
	}
	keys := make([]uint64, refTableKeys)
	for i := range keys {
		keys[i] = rng.Uint64() | 1 // 0 marks an empty slot
		r.insert(keys[i])
	}
	for i := range r.probes {
		r.probes[i] = keys[rng.Intn(len(keys))]
	}
	for i := range r.sortSrc {
		r.sortSrc[i] = rng.Int63()
	}
	cells := make([]float64, refServerCells)
	for i := range cells {
		cells[i] = rng.Float64()
	}
	r.handler = refHandler(cells)
	for i := 0; i < refServerKeys; i++ {
		body, err := json.Marshal(refRequest{Key: fmt.Sprintf("key-%02d", i), Scale: 0.5 + rng.Float64(), Rows: 8 + i})
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, body)
	}
	runtime.GC() // the workload starts without the build's garbage
	return r, nil
}

func refSlot(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 43 } // top 21 bits: refTableSlots

func (r *reference) insert(k uint64) {
	for i := refSlot(k); ; i = (i + 1) % refTableSlots {
		if r.table[i] == 0 {
			r.table[i] = k
			return
		}
	}
}

func (r *reference) find(k uint64) uint64 {
	for i := refSlot(k); ; i = (i + 1) % refTableSlots {
		if r.table[i] == k {
			return i
		}
	}
}

// sample runs both parts of the kernel once and records their times. A
// nil reference does nothing.
func (r *reference) sample() {
	if r == nil {
		return
	}
	r.memory = append(r.memory, r.memoryPart())
	r.server = append(r.server, r.serverPart())
}

// memoryPart runs the memory part on a locked thread and returns its
// CPU milliseconds.
func (r *reference) memoryPart() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	p := uint32(0)
	for i := 0; i < refChaseSteps; i++ {
		p = r.chase[p]
	}
	var s uint64
	for _, k := range r.probes {
		s += r.find(k)
	}
	copy(r.sortBuf, r.sortSrc)
	slices.Sort(r.sortBuf)
	r.sink += uint64(p) + s + uint64(r.sortBuf[len(r.sortBuf)/2])
	return ms(threadCPUTime() - c0)
}

// serverPart serves the server part's requests to refServerClients
// closed-loop clients and returns the median request latency in
// microseconds.
func (r *reference) serverPart() float64 {
	lat := make([][]time.Duration, refServerClients)
	var wg sync.WaitGroup
	for c := range lat {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < refServerRequests; i++ {
				body := r.bodies[(i*7+c*5)%len(r.bodies)]
				req := httptest.NewRequest(http.MethodPost, "/v1/reference", bytes.NewReader(body))
				rw := httptest.NewRecorder()
				begin := time.Now()
				r.handler.ServeHTTP(rw, req)
				lat[c] = append(lat[c], time.Since(begin))
				if rw.Code != http.StatusOK {
					panic(fmt.Sprintf("reference server: status %d: %s", rw.Code, rw.Body.Bytes()))
				}
			}
		}(c)
	}
	wg.Wait()
	return us(quantile(slices.Concat(lat...), 0.50))
}

type refRequest struct {
	Key   string  `json:"key"`
	Scale float64 `json:"scale"`
	Rows  int     `json:"rows"`
}

type refResponse struct {
	Key   string    `json:"key"`
	Rows  []float64 `json:"rows"`
	Total float64   `json:"total"`
}

// refHandler decodes a refRequest, prices its rows of cells with exp
// and log, and encodes the result.
func refHandler(cells []float64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var in refRequest
		if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := refResponse{Key: in.Key, Rows: make([]float64, in.Rows)}
		for i, v := range cells {
			x := v * in.Scale * float64(i%in.Rows+1) * 1e-2
			out.Rows[i%in.Rows] += math.Exp(-x) * math.Log1p(x)
		}
		for _, v := range out.Rows {
			out.Total += v
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(&out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// threadCPUTime is the CPU time of the calling thread, to the
// nanosecond. The caller keeps its goroutine on the thread.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}
