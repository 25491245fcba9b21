package serve

import (
	"bufio"
	"bytes"
	"math"
	"testing"
)

// The wire fuzz targets read their input the way a connection does,
// message by message until the stream ends or a message is rejected, and
// check every message the protocol accepts: no input may panic, and what
// is accepted must survive being encoded and read again.

// requestBody encodes a request body; responseBody encodes the OK
// response that echoes a request's payload.
func requestBody(req *Request) []byte { return appendRequest(nil, req) }

func responseBody(req *Request) []byte {
	return appendResponse(nil, &Response{ID: req.ID, Status: StatusOK, Cycles: 1234.5, Payload: req.Payload})
}

// wireSeeds returns the inputs of hostileMessages, then each of
// sampleRequests and one 64 KiB request, framed with encode.
func wireSeeds(f *testing.F, encode func(*Request) []byte) [][]byte {
	var seeds [][]byte
	for _, h := range hostileMessages() {
		seeds = append(seeds, h.input)
	}
	reqs := sampleRequests(DefaultCatalog(), 2)
	reqs = append(reqs, Request{ID: 9, Op: OpSerialize, Schema: "string", Payload: make([]byte, 64<<10)})
	for i := range reqs {
		framed, err := appendFramed(nil, encode(&reqs[i]))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, framed)
	}
	return seeds
}

// eachMessage calls fn with every body readFrame accepts from data under
// limit, failing t if one is longer than the limit.
func eachMessage(t *testing.T, data []byte, limit int, fn func(body []byte)) {
	t.Helper()
	r := bufio.NewReaderSize(bytes.NewReader(data), 16) // refills mid-frame, as the transports' readers do
	for {
		body, err := readFrame(r, limit)
		if err != nil {
			return
		}
		if len(body) > limit || len(body) > maxFrame {
			t.Fatalf("readFrame returned %d bytes under limit %d", len(body), limit)
		}
		fn(body)
	}
}

func sameRequest(a, b Request) bool {
	return a.ID == b.ID && a.Op == b.Op && a.Schema == b.Schema && a.Timeout == b.Timeout &&
		bytes.Equal(a.Payload, b.Payload)
}

func sameResponse(a, b Response) bool {
	return a.ID == b.ID && a.Status == b.Status && a.FellBack == b.FellBack &&
		math.Float64bits(a.Cycles) == math.Float64bits(b.Cycles) && bytes.Equal(a.Payload, b.Payload)
}

// An accepted body, framed again, must read back equal under the same
// limit.
func FuzzReadMessage(f *testing.F) {
	for _, s := range wireSeeds(f, requestBody) {
		f.Add(s, uint32(maxFrame))
	}
	f.Fuzz(func(t *testing.T, data []byte, limit uint32) {
		eachMessage(t, data, int(limit), func(body []byte) {
			framed, err := appendFramed(nil, body)
			if err != nil {
				t.Fatalf("framing an accepted %d-byte body: %v", len(body), err)
			}
			again, err := readFrame(bytes.NewReader(framed), int(limit))
			if err != nil || !bytes.Equal(again, body) {
				t.Fatalf("a reframed %d-byte body read back as %d bytes, err %v", len(body), len(again), err)
			}
		})
	})
}

// An accepted request, encoded again, must parse back equal.
func FuzzParseRequest(f *testing.F) {
	for _, s := range wireSeeds(f, requestBody) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eachMessage(t, data, maxFrame, func(body []byte) {
			req, err := parseRequest(body)
			if err != nil {
				return
			}
			again, err := parseRequest(appendRequest(nil, &req))
			if err != nil || !sameRequest(again, req) {
				t.Fatalf("request %+v re-encoded parsed as %+v, err %v", req, again, err)
			}
		})
	})
}

// An accepted response carries a defined status and, encoded again, must
// parse back equal, Cycles bit for bit.
func FuzzParseResponse(f *testing.F) {
	for _, s := range wireSeeds(f, responseBody) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eachMessage(t, data, maxFrame, func(body []byte) {
			resp, err := parseResponse(body)
			if err != nil {
				return
			}
			if resp.Status >= numStatuses {
				t.Fatalf("response with undefined status %d accepted", resp.Status)
			}
			again, err := parseResponse(appendResponse(nil, &resp))
			if err != nil || !sameResponse(again, resp) {
				t.Fatalf("response %+v re-encoded parsed as %+v, err %v", resp, again, err)
			}
		})
	})
}
