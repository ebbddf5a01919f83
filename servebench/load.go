package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
)

// request is one request the load generator issued. due is when it was
// meant to be sent (open loop) or was sent (closed loop); launched is when
// the generator got to it, acquired when it held a connection, end when
// the response had been read.
type request struct {
	Model   int
	Input   int
	Traced  bool
	Err     error
	out     *ckks.Ciphertext
	absErr  float64 // the verified response's largest absolute error
	traceID string
	// transportWait is how long a traced request waited inside the HTTP
	// transport for a connection.
	transportWait time.Duration
	due           time.Time
	launched      time.Time
	acquired      time.Time
	end           time.Time
}

func (r *request) latency() time.Duration  { return r.end.Sub(r.due) }
func (r *request) late() time.Duration     { return r.launched.Sub(r.due) }
func (r *request) connWait() time.Duration { return r.acquired.Sub(r.launched) }

// sendFunc performs one request on behalf of r and returns its error.
type sendFunc func(r *request) error

// runClosed starts clients goroutines that each send their next request as
// soon as the previous one returns, until window has elapsed since start
// (every traceEvery-th request of a client traced). Client c walks the
// inputs c, c+clients, c+2·clients, ... of a pool of poolSize. Requests in
// flight at the deadline finish and are kept.
func runClosed(clients, poolSize int, start time.Time, window time.Duration, traceEvery int, send sendFunc) []*request {
	deadline := start.Add(window)
	per := make([][]*request, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				now := time.Now()
				r := &request{Input: (c + i*clients) % poolSize, due: now, launched: now, acquired: now}
				r.Traced = traceEvery > 0 && i%traceEvery == 0
				r.Err = send(r)
				r.end = time.Now()
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var out []*request
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// arrival is one scheduled open-loop request.
type arrival struct {
	Due   time.Duration
	Model int
	Input int
}

// poissonSchedule draws round(rate·window) arrivals of a Poisson process
// over window, conditioned on that count: sorted uniform times. Fixing the
// count keeps the offered load the same on every seed, so only the
// arrivals' clustering varies. Arrival i goes to model mix[i mod len(mix)],
// so every window splits them in the same proportions, and each model
// cycles through a pool of poolSize inputs. The same seed gives the same
// schedule.
func poissonSchedule(seed int64, rate float64, window time.Duration, mix []int, poolSize int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * window.Seconds()))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	out := make([]arrival, n)
	next := map[int]int{}
	for i, due := range dues {
		m := mix[i%len(mix)]
		out[i] = arrival{Due: due, Model: m, Input: next[m] % poolSize}
		next[m]++
	}
	return out
}

// runOpen sends the schedule's requests at their due times after start
// (every traceEvery-th one traced), whatever the state of earlier ones,
// over at most conns concurrent connections. A request that finds every
// connection busy waits for one in the generator; latency is timed from
// the due time, so that wait counts.
func runOpen(sched []arrival, start time.Time, conns, traceEvery int, send sendFunc) []*request {
	sem := make(chan struct{}, conns)
	out := make([]*request, len(sched))
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.Due)
		time.Sleep(time.Until(due))
		r := &request{Model: a.Model, Input: a.Input, due: due, launched: time.Now()}
		r.Traced = traceEvery > 0 && i%traceEvery == 0
		out[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			r.acquired = time.Now()
			r.Err = send(r)
			r.end = time.Now()
			<-sem
		}()
	}
	wg.Wait()
	return out
}
