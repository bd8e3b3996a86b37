package trace

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptrace"
	"reflect"
	"strconv"
	"strings"
	"unsafe"

	"sofya/internal/endpoint"
)

// spanHeader carries "<span>.<op>" from the traced transport to the
// traced handler, so server-side spans hang under the request that
// caused them. Only traced runs send it.
const spanHeader = "X-Bench-Span"

// RoundTripper wraps inner so every exchange records a LayerTransport
// span from send to response-body EOF or close, with time to first
// byte, body byte counts and connection reuse. A nil tracer returns
// inner itself.
func (t *Tracer) RoundTripper(inner http.RoundTripper) http.RoundTripper {
	if t == nil {
		return inner
	}
	return &spanTransport{t: t, inner: inner}
}

// InstrumentClient puts the span-recording RoundTripper under the
// http.Client c already holds, in place. endpoint.NewClient(…, nil)
// builds that client from the program's private defaults; wrapping it
// where it sits, instead of handing NewClient a look-alike, keeps the
// traced run on whatever transport the program ships — pool sizes and
// timeouts included. The field is private, so it is reached by name;
// if it is renamed or retyped this fails the traced run, which is the
// point: the per-layer numbers must not go on describing old settings.
// A nil tracer leaves c alone.
func (t *Tracer) InstrumentClient(c *endpoint.Client) error {
	if t == nil {
		return nil
	}
	f := reflect.ValueOf(c).Elem().FieldByName("httpc")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*http.Client)(nil)) {
		return errors.New("bench/trace: endpoint.Client no longer keeps its *http.Client in a field named httpc; update InstrumentClient")
	}
	hc := *(**http.Client)(unsafe.Pointer(f.UnsafeAddr()))
	if hc == nil {
		return errors.New("bench/trace: endpoint.Client holds no http.Client")
	}
	inner := hc.Transport
	if st, ok := inner.(*spanTransport); ok && st.t == t {
		return nil // a client shared by several endpoint.Clients is wrapped once
	}
	if inner == nil {
		inner = http.DefaultTransport
	}
	hc.Transport = t.RoundTripper(inner)
	return nil
}

type spanTransport struct {
	t     *Tracer
	inner http.RoundTripper
}

func (rt *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s, ctx := rt.t.begin(req.Context(), LayerTransport, ClassOther)
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				rt.t.connsReused.Add(1)
			} else {
				rt.t.connsDialed.Add(1)
			}
		},
	})
	req = req.Clone(ctx)
	req.Header.Set(spanHeader, strconv.Itoa(int(s.ID))+"."+strconv.Itoa(int(s.Op)))
	if req.ContentLength > 0 {
		s.ReqBytes = int32(req.ContentLength)
	}
	resp, err := rt.inner.RoundTrip(req)
	s.Mid = rt.t.now()
	if err != nil {
		rt.t.close(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// spanBody counts response bytes and ends the transport span at EOF or
// Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	t    *Tracer
	s    *Span
	done bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.RespBytes += int32(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.t.close(b.s)
	}
}

// Handler wraps inner so every request records a LayerHandler span
// (parented by the transport span named in the request header) and
// counts response flushes. A nil tracer returns inner itself.
func (t *Tracer) Handler(inner http.Handler) http.Handler {
	if t == nil {
		return inner
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := ref{span: -1, op: -1}
		if sp, op, ok := strings.Cut(r.Header.Get(spanHeader), "."); ok {
			a, errA := strconv.Atoi(sp)
			b, errB := strconv.Atoi(op)
			if errA == nil && errB == nil {
				parent = ref{span: int32(a), op: int32(b)}
			}
		}
		s, ctx := t.begin(withRef(r.Context(), parent), LayerHandler, ClassOther)
		fw := &flushWriter{ResponseWriter: w, s: s}
		inner.ServeHTTP(fw, r.WithContext(ctx))
		t.close(s)
	})
}

// flushWriter counts Flush calls. It always offers http.Flusher, as
// net/http's own ResponseWriter does.
type flushWriter struct {
	http.ResponseWriter
	s *Span
}

func (w *flushWriter) Flush() {
	w.s.Flushes++
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
