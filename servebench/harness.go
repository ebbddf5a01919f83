package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/server"
)

// tolerance is the largest absolute error a decrypted output may have
// against MLP.InferPlain before the request counts as failed.
const tolerance = 1.0 / 1024

// byteCounter wraps a transport and counts the request bodies sent to the
// session-registration endpoint.
type byteCounter struct {
	next  http.RoundTripper
	bytes atomic.Int64
	posts atomic.Int64
}

func (b *byteCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == "/v1/sessions" {
		b.bytes.Add(req.ContentLength)
		b.posts.Add(1)
	}
	return b.next.RoundTrip(req)
}

// stack is one in-process server behind a loopback HTTP listener and the
// client that drives it.
type stack struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	hc      *http.Client
	counter *byteCounter
	cl      *server.Client
	deployS map[string]float64

	// registerMB is the mean request body of the set-up registrations and
	// sessionMB the live-heap growth per set-up session, both in MB.
	registerMB, sessionMB float64
}

// newStack builds the server, listens on a loopback port and deploys the
// models, timing each deploy. conns caps the client's HTTP connections.
func newStack(models []*registry.Model, conns int) (*stack, error) {
	srv, err := server.New(server.Options{Workers: -1, MaxSessions: 16})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &stack{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		deployS: map[string]float64{},
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	st.counter = &byteCounter{next: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	st.hc = &http.Client{Transport: st.counter}
	st.cl = server.NewClient(st.base, st.hc)
	for _, m := range models {
		start := time.Now()
		if _, err := srv.Registry().Deploy(m); err != nil {
			st.close()
			return nil, err
		}
		st.deployS[m.Name] = time.Since(start).Seconds()
	}
	return st, nil
}

// close shuts the listener and server down and waits for the serve loop.
func (st *stack) close() {
	_ = st.hs.Close() // the serve loop's own error is collected below
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("serve loop: %v", err)
	}
	st.counter.next.(*http.Transport).CloseIdleConnections()
	st.srv.Close()
}

// keys is a client's key material, regenerated from the seed the session
// registered with: ckks key generation is deterministic, so the secret key
// matches the one the session holds.
type keys struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
}

// regenKeys repeats the first two steps of Client.NewSession's key
// generation (secret key, then public key) for the seed.
func regenKeys(m *registry.Model, seed int64) (*keys, error) {
	params, err := ckks.NewParameters(m.Params)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &keys{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, pk, seed^0x5eed),
		decr:   ckks.NewDecryptor(params, sk),
	}, nil
}

func (k *keys) encrypt(x []float64) (*ckks.Ciphertext, error) {
	vec := make([]float64, k.params.Slots())
	copy(vec, x)
	pt, err := k.enc.EncodeReals(vec, k.params.MaxLevel(), k.params.DefaultScale())
	if err != nil {
		return nil, err
	}
	return k.encr.Encrypt(pt), nil
}

func (k *keys) decrypt(ct *ckks.Ciphertext, n int) []float64 {
	return k.enc.DecodeReals(k.decr.Decrypt(ct))[:n]
}

// maxErr is the largest absolute difference between got and want.
func maxErr(got, want []float64) float64 {
	e := 0.0
	for i := range want {
		e = math.Max(e, math.Abs(got[i]-want[i]))
	}
	return e
}

// bitsOf converts an absolute error into bits of precision.
func bitsOf(err float64) float64 { return -math.Log2(math.Max(err, 1e-300)) }

// inputs draws n input vectors of dimension dim, uniform in [-1, 1].
func inputs(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = 2*rng.Float64() - 1
		}
	}
	return out
}

// session is a registered session plus everything the benchmark needs to
// drive and check it: its inputs, their encryptions and expected outputs.
type session struct {
	model *registry.Model
	seed  int64
	sess  *server.Session
	keys  *keys
	want  [][]float64
	cts   []*ckks.Ciphertext
	encMs []float64
}

// register opens a session for the model through the public client and
// returns the client-observed registration time.
func (st *stack) register(ctx context.Context, m *registry.Model, seed int64) (*session, time.Duration, error) {
	start := time.Now()
	sess, err := st.cl.NewSessionFor(ctx, m.Name, seed)
	d := time.Since(start)
	if err != nil {
		return nil, d, fmt.Errorf("registering %s: %w", m.Name, err)
	}
	return &session{model: m, seed: seed, sess: sess}, d, nil
}

// warm sends one plaintext-in inference through the session's own
// encryptor and checks the answer.
func (s *session) warm(ctx context.Context, x []float64) (float64, error) {
	got, err := s.sess.Infer(ctx, x)
	if err != nil {
		return 0, err
	}
	e := maxErr(got, s.model.MLP.InferPlain(x))
	if e > tolerance {
		return e, fmt.Errorf("%s warm-up error %g exceeds %g", s.model.Name, e, tolerance)
	}
	return e, nil
}

// prepare draws the session's input pool from seed and encrypts it under
// the session's public key, so the timed window does no encryption.
func (s *session) prepare(seed int64, pool int) error {
	k, err := regenKeys(s.model, s.seed)
	if err != nil {
		return err
	}
	s.keys = k
	s.want = make([][]float64, pool)
	s.cts = make([]*ckks.Ciphertext, pool)
	for i, x := range inputs(seed, pool, s.model.InputDim) {
		s.want[i] = s.model.MLP.InferPlain(x)[:s.model.OutputDim]
		start := time.Now()
		if s.cts[i], err = k.encrypt(x); err != nil {
			return err
		}
		s.encMs = append(s.encMs, ms(time.Since(start)))
	}
	return nil
}

// infer sends pool input r.Input and returns the encrypted result and the
// server's trace id. A traced request records its HTTP phases as spans.
func (s *session) infer(ctx context.Context, r *request, log *spanLog) (out *ckks.Ciphertext, id string, err error) {
	if !r.Traced {
		return s.sess.InferCiphertextTraced(ctx, s.cts[r.Input])
	}
	r.transportWait = traced(ctx, log, "client.infer", func(ctx context.Context) {
		out, id, err = s.sess.InferCiphertextTraced(ctx, s.cts[r.Input])
	})
	return out, id, err
}

// traced runs call under a root span named name and records, as child
// spans, each HTTP request's wait for a connection, request write, and wait
// for the server's first response byte. It returns the total wait for a
// connection.
func traced(ctx context.Context, log *spanLog, name string, call func(ctx context.Context)) (connWait time.Duration) {
	id := fmt.Sprintf("%s-%d", name, time.Now().UnixNano())
	root := log.add(span{Trace: id, Name: name, Parent: -1, Start: time.Now()})
	var mu sync.Mutex
	var last time.Time
	phase := func(ended string) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if ended != "" {
			log.add(span{Trace: id, Name: ended, Parent: root, Start: last, End: now})
		}
		if ended == "http.conn" {
			connWait += now.Sub(last)
		}
		last = now
	}
	call(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn:              func(string) { phase("") },
		GotConn:              func(httptrace.GotConnInfo) { phase("http.conn") },
		WroteRequest:         func(httptrace.WroteRequestInfo) { phase("http.write") },
		GotFirstResponseByte: func() { phase("http.server") },
	}))
	log.end(root, time.Now())
	mu.Lock()
	defer mu.Unlock()
	return connWait
}

// check decrypts out and compares it with the expected output of pool
// input i, returning the absolute error.
func (s *session) check(out *ckks.Ciphertext, i int) float64 {
	return maxErr(s.keys.decrypt(out, s.model.OutputDim), s.want[i])
}

// cpuModel extracts the CPU model name from /proc/cpuinfo's text.
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
