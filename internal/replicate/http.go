package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The wire protocol: three endpoints a primary mounts under /replicate.
//
//	GET  /replicate/manifest                          -> Manifest (JSON)
//	GET  /replicate/file?store=S&name=F&off=O&max=M   -> raw bytes
//	POST /replicate/ack                               <- {"store": lsn} (JSON)
//
// Manifests are JSON because they are tiny and debuggable with curl;
// file bytes ship raw — the follower's tailer does the decoding, so the
// primary never re-serializes a record it already wrote.

// maxFetchBytes caps one file response; a follower asking for more gets
// a short read and comes back for the rest.
const maxFetchBytes = 4 << 20

// NewHandler serves the replication protocol over src. ack (may be nil)
// receives the follower's applied LSNs per store — the primary's
// shutdown path waits on these.
func NewHandler(src Source, ack func(applied map[string]int64)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replicate/manifest", func(w http.ResponseWriter, r *http.Request) {
		m, err := src.Manifest(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(m)
	})
	mux.HandleFunc("GET /replicate/file", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		store, name := q.Get("store"), q.Get("name")
		if err := validNames(store, name); err != nil || name == "" {
			http.Error(w, "bad store or file name", http.StatusBadRequest)
			return
		}
		off, err := strconv.ParseInt(q.Get("off"), 10, 64)
		if err != nil || off < 0 {
			http.Error(w, "bad off", http.StatusBadRequest)
			return
		}
		max, err := strconv.ParseInt(q.Get("max"), 10, 64)
		if err != nil || max <= 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		if max > maxFetchBytes {
			max = maxFetchBytes
		}
		b, err := src.Fetch(r.Context(), store, name, off, max)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(b)
	})
	mux.HandleFunc("POST /replicate/ack", func(w http.ResponseWriter, r *http.Request) {
		var applied map[string]int64
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&applied); err != nil {
			http.Error(w, "bad ack body", http.StatusBadRequest)
			return
		}
		for store := range applied {
			if err := validNames(store, ""); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		if ack != nil {
			ack(applied)
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// HTTPSource pulls from a live primary's replication endpoints. It
// implements Acker, so a follower using it reports applied LSNs back.
type HTTPSource struct {
	Base   string       // e.g. "http://primary:8080"
	Client *http.Client // nil selects one connection per store of the primary
}

// storeConns is one primary's connections when HTTPSource has no Client:
// a single-connection client per store slot. Slot i carries the fetches
// of the i-th store of the latest manifest; slot 0 also carries
// manifests and acks, which a sync sends while none of its fetches is in
// flight. A sync therefore never holds more connections than the stores
// it fetches. One shared pool cannot promise that: http.Transport dials
// whenever a request finds no idle connection, even while an earlier
// response's connection is on its way back to the pool, so a sync's
// overlapping fetches could open one connection more than it has stores.
type storeConns struct {
	mu      sync.Mutex
	clients []*http.Client
	slot    map[string]int
}

// primaryConns maps HTTPSource.Base to its *storeConns.
var primaryConns sync.Map

func (h HTTPSource) conns() *storeConns {
	c, ok := primaryConns.Load(h.Base)
	if !ok {
		c, _ = primaryConns.LoadOrStore(h.Base, &storeConns{slot: map[string]int{}})
	}
	return c.(*storeConns)
}

// clientFor returns the client for store's slot; the empty store (a
// manifest or an ack) and a store no manifest has listed take slot 0.
func (h HTTPSource) clientFor(store string) *http.Client {
	if h.Client != nil {
		return h.Client
	}
	c := h.conns()
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.slot[store]
	for len(c.clients) <= i {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxConnsPerHost, t.MaxIdleConnsPerHost = 1, 1
		c.clients = append(c.clients, &http.Client{Transport: t})
	}
	return c.clients[i]
}

// learnSlots gives each store of m the slot of its position.
func (h HTTPSource) learnSlots(m Manifest) {
	if h.Client != nil {
		return
	}
	c := h.conns()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, sm := range m.Stores {
		c.slot[sm.Name] = i
	}
}

// drainClose reads a response body to EOF (up to one fetch's worth)
// before closing it, so the transport returns the connection to its idle
// pool instead of closing it.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxFetchBytes))
	body.Close()
}

// Manifest fetches the primary's current manifest.
func (h HTTPSource) Manifest(ctx context.Context) (Manifest, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.Base+"/replicate/manifest", nil)
	if err != nil {
		return Manifest{}, fmt.Errorf("replicate: %w", err)
	}
	resp, err := h.clientFor("").Do(req)
	if err != nil {
		return Manifest{}, fmt.Errorf("replicate: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return Manifest{}, fmt.Errorf("replicate: manifest: %s", resp.Status)
	}
	var m Manifest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("replicate: decoding manifest: %w", err)
	}
	for _, sm := range m.Stores {
		if err := validNames(sm.Name, ""); err != nil {
			return Manifest{}, err
		}
		for _, f := range sm.Files {
			if err := validNames(sm.Name, f.Name); err != nil {
				return Manifest{}, err
			}
		}
	}
	h.learnSlots(m)
	return m, nil
}

// Fetch reads a byte range of one store file from the primary.
func (h HTTPSource) Fetch(ctx context.Context, store, file string, offset, max int64) ([]byte, error) {
	if err := validNames(store, file); err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/replicate/file?store=%s&name=%s&off=%d&max=%d", h.Base, store, file, offset, max)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	resp, err := h.clientFor(store).Do(req)
	if err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replicate: fetch %s/%s: %s", store, file, resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBytes+1))
	if err != nil {
		return nil, fmt.Errorf("replicate: fetch %s/%s: %w", store, file, err)
	}
	return b, nil
}

// Ack posts the follower's applied LSNs back to the primary.
func (h HTTPSource) Ack(ctx context.Context, applied map[string]int64) error {
	body, err := json.Marshal(applied)
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.Base+"/replicate/ack", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.clientFor("").Do(req)
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replicate: ack: %s", resp.Status)
	}
	return nil
}
