package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"primacy/internal/archive"
	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/durable"
)

// maxArchiveBytes caps one tenant's raw archived bytes.
const maxArchiveBytes = 256 << 20

// archiveParams parses ?name= and ?step= (step defaults to 0).
func archiveParams(r *http.Request, needName bool) (string, int, error) {
	name := r.URL.Query().Get("name")
	if name == "" && needName {
		return "", 0, badRequest("missing ?name=", nil)
	}
	step := 0
	if v := r.URL.Query().Get("step"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return "", 0, badRequest(fmt.Sprintf("invalid ?step=%q", v), nil)
		}
		step = n
	}
	return name, step, nil
}

func (s *Server) opArchivePut(req *request) (*response, error) {
	name, step, err := archiveParams(req.r, true)
	if err != nil {
		return nil, err
	}
	if len(req.body) == 0 || len(req.body)%8 != 0 {
		return nil, badRequest(fmt.Sprintf("body length %d is not a non-empty multiple of 8", len(req.body)), nil)
	}
	values, err := bytesplit.BytesToFloat64s(req.body)
	if err != nil {
		return nil, badRequest("decoding float64 payload", err)
	}
	release, err := s.admit(req, int64(len(req.body)))
	if err != nil {
		return nil, err
	}
	defer release()
	// When this returns nil the entry is journaled and fsync'd — the 200 is
	// a durability receipt, not just an acknowledgement.
	if err := s.store.Put(req.ctx, req.tenant, name, step, values, maxArchiveBytes); err != nil {
		switch {
		case errors.Is(err, durable.ErrExists):
			return nil, &httpError{status: http.StatusConflict,
				msg: fmt.Sprintf("entry %s@%d already archived", name, step)}
		case errors.Is(err, durable.ErrOverBudget):
			return nil, &httpError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("tenant archive budget %d bytes exceeded", maxArchiveBytes),
			}
		}
		return nil, fmt.Errorf("archiving %s@%d: %w", name, step, err)
	}
	return &response{body: []byte(fmt.Sprintf("archived %s@%d (%d values)\n", name, step, len(values)))}, nil
}

// opArchiveGet serves both read forms, each costing what it returns. A
// named get reads the one entry back from the file the store keeps it in —
// a journal record, or one entry of the sealed segment — so no container is
// built, nothing is locked across requests, and admission is charged the
// entry's bytes. Only the whole-archive download (no ?name=) needs the
// encoded container; see downloadArchive.
func (s *Server) opArchiveGet(req *request) (*response, error) {
	name, step, err := archiveParams(req.r, false)
	if err != nil {
		return nil, err
	}
	opts, err := s.codecOptions(req.r)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return s.downloadArchive(req, opts)
	}
	values, err := s.store.Get(req.tenant, name, step)
	if err != nil {
		return nil, readError(fmt.Sprintf("entry %s@%d", name, step), err)
	}
	release, err := s.admit(req, int64(len(values))*bytesplit.BytesPerValue)
	if err != nil {
		return nil, err
	}
	defer release()
	return &response{body: bytesplit.Float64sToBytes(values)}, nil
}

// downloadArchive returns the tenant's entries as one archive container.
// The store is append-only and entries are immutable, so the container of
// the previous download (same tenant, same codec options) is a prefix of
// this one: it is kept in the result cache, under the cache's byte budget,
// and each download encodes only the entries put since. A container the
// cache has dropped is simply built again from the first entry.
func (s *Server) downloadArchive(req *request, opts core.Options) (*response, error) {
	// Admission is acquired before the cache slot: a download queued behind
	// the fair-share gate must not make the tenant's other downloads wait on
	// a build that has not started.
	rawBytes := s.store.RawBytes(req.tenant)
	if rawBytes == 0 {
		return nil, &httpError{status: http.StatusNotFound, msg: "tenant has no archived entries"}
	}
	release, err := s.admit(req, rawBytes)
	if err != nil {
		return nil, err
	}
	defer release()
	// The raw byte count versions the container: it grows with every put.
	// The leader reads back only the entries its cached container lacks.
	key := fmt.Sprintf("a:%s:%s", optionsKey(opts), req.tenant)
	blob, _, err := s.cache.Refresh(req.ctx, key, rawBytes, func(prev []byte) ([]byte, error) {
		return buildArchive(req.ctx, prev, func(from int, put func(durable.Entry) error) error {
			return s.store.Each(req.tenant, from, put)
		}, opts)
	})
	if err != nil {
		return nil, err
	}
	return &response{body: blob}, nil
}

// readError answers a failed read of what: a 404 when the store does not
// hold it, a 500 when the store holds it but fails to read it back — the
// server's fault, not the client's.
func readError(what string, err error) error {
	if errors.Is(err, durable.ErrNotFound) {
		return &httpError{status: http.StatusNotFound, msg: what, err: err}
	}
	return &httpError{status: http.StatusInternalServerError, msg: "reading " + what + " back", err: err}
}

// buildArchive extends prev, the container of a leading part of the
// tenant's entries (nil for none), to all of them, under ctx's deadline.
// each(from, put) hands put the entries from the from-th on, one at a time,
// and fails with durable.ErrNotFound, before the first, for a from beyond
// the last. There is no separate from-scratch path: a prev that cannot be
// continued, or holds more entries than there are, is dropped and the resume
// starts from the empty archive instead. A failed put ends the build as it
// is; a failed read is a readError.
func buildArchive(ctx context.Context, prev []byte, each func(from int, put func(durable.Entry) error) error, opts core.Options) ([]byte, error) {
	var buf bytes.Buffer
	var src io.ReaderAt
	if prev != nil {
		src = bytes.NewReader(prev)
	}
	var w *archive.Writer
	var putErr error
	put := func(e durable.Entry) error {
		putErr = w.PutFloat64s(e.Name, e.Step, e.Values)
		return putErr
	}
	w, err := archive.ResumeWriterCtx(ctx, &buf, src, int64(len(prev)), opts)
	if err == nil {
		err = each(w.NumEntries(), put)
	}
	if prev != nil && (w == nil || errors.Is(err, durable.ErrNotFound)) {
		buf.Reset()
		if w, err = archive.ResumeWriterCtx(ctx, &buf, nil, 0, opts); err == nil {
			err = each(0, put)
		}
	}
	if err != nil {
		if putErr == nil {
			err = readError("the archive", err)
		}
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
