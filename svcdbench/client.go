package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
)

// spanHeader carries a client-assigned request ID in traced runs, so the
// server-side handler span can be matched with the client's timing.
const spanHeader = "X-Bench-Span"

// requestTimeout bounds one request; a request that exceeds it counts as
// a failure.
const requestTimeout = 10 * time.Second

// apiClient speaks svcd's HTTP API over at most conns keep-alive
// connections.
type apiClient struct {
	http *http.Client
	base string

	// Traced runs only: onDone receives each request's ID and its
	// client-observed send-to-response interval.
	nextID atomic.Uint64
	onDone func(id uint64, op opKind, start, end time.Time)
}

func newAPIClient(addr string, conns int) *apiClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &apiClient{
		http: &http.Client{Transport: tr, Timeout: requestTimeout},
		base: "http://" + addr,
	}
}

// close drops the client's idle connections.
func (c *apiClient) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes a JSON response into out when the
// status is one of okStatus. It returns the status code; err reports a
// transport failure or an undecodable success body.
func (c *apiClient) do(op opKind, method, path string, body, out any, okStatus int) (int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id uint64
	if c.onDone != nil {
		id = c.nextID.Add(1)
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if c.onDone != nil {
		c.onDone(id, op, start, time.Now())
	}
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode == okStatus && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *apiClient) admit(req *httpapi.AllocationRequest) (int, httpapi.AllocationResponse, error) {
	var resp httpapi.AllocationResponse
	st, err := c.do(opAdmit, http.MethodPost, "/v1/allocations", req, &resp, http.StatusCreated)
	return st, resp, err
}

func (c *apiClient) dryRun(req *httpapi.AllocationRequest) (int, error) {
	var resp httpapi.DryRunResponse
	return c.do(opQuery, http.MethodPost, "/v1/dryrun", req, &resp, http.StatusOK)
}

func (c *apiClient) release(id int64) (int, error) {
	return c.do(opRelease, http.MethodDelete, "/v1/allocations/"+strconv.FormatInt(id, 10), nil, nil, http.StatusNoContent)
}

// status returns GET /v1/status as a generic document, so counters a
// later version drops read as absent rather than zero.
func (c *apiClient) status() (statusDoc, error) {
	var doc statusDoc
	st, err := c.do(opOther, http.MethodGet, "/v1/status", nil, &doc, http.StatusOK)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("GET /v1/status: status %d", st)
	}
	return doc, err
}

func (c *apiClient) state() (*core.ManagerState, error) {
	var ms core.ManagerState
	st, err := c.do(opOther, http.MethodGet, "/v1/state", nil, &ms, http.StatusOK)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("GET /v1/state: status %d", st)
	}
	return &ms, err
}
