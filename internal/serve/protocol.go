package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"protoacc/internal/pb/wire"
)

// The wire protocol is deliberately minimal: every message is one frame
// — a 4-byte big-endian length followed by that many body bytes — and
// the bodies reuse the repo's own varint encoder. Requests and responses
// carry a correlation id, so a connection may pipeline: responses come
// back in completion order, not submission order (batching reorders).
//
//	request body:  version(1) op(1) id(uvarint) schema(uvarint len + bytes)
//	               timeout_us(uvarint) payload(rest)
//	response body: version(1) status(1) flags(1) id(uvarint)
//	               cycles(8, fixed64 float bits) payload(rest)
const (
	// protocolVersion guards against skew between daemon and clients.
	protocolVersion = 1

	// maxFrame bounds any message body; a peer announcing more is
	// treated as malformed rather than trusted with the allocation.
	maxFrame = 64 << 20

	// allocStep caps how much memory a length prefix can commit before
	// any body byte has actually arrived: readFrame grows its buffer in
	// steps of this size as data is read, so a corrupt or hostile prefix
	// costs at most one step, not the announced length.
	allocStep = 1 << 20

	// connBufSize sizes each connection's read buffer: one read system
	// call takes in many pipelined messages.
	connBufSize = 32 << 10

	// keepBuf is the largest write buffer kept for reuse after a flush;
	// one grown past it by an occasional large message is released.
	keepBuf = 256 << 10

	flagFellBack = 1 << 0
)

// reusable returns b emptied for reuse as a write buffer, or nil when it
// grew past keepBuf.
func reusable(b []byte) []byte {
	if cap(b) > keepBuf {
		return nil
	}
	return b[:0]
}

// beginMessage reserves a length prefix at the end of b for a message
// encoded in place. The caller appends the body and passes the returned
// mark to endMessage.
func beginMessage(b []byte) (out []byte, mark int) {
	return append(b, 0, 0, 0, 0), len(b)
}

// endMessage frames the body appended to b since beginMessage returned
// mark by back-patching its length prefix. A body over maxFrame is cut
// off — b is returned as it was before beginMessage, so nothing of the
// message reaches the wire — and reported as an error.
func endMessage(b []byte, mark int) ([]byte, error) {
	n := len(b) - mark - 4
	if n > maxFrame {
		return b[:mark], fmt.Errorf("%w: %d bytes, limit %d", ErrTooLarge, n, maxFrame)
	}
	binary.BigEndian.PutUint32(b[mark:], uint32(n))
	return b, nil
}

// readFrame reads one message body of at most min(limit, maxFrame)
// bytes. The allocation is committed incrementally (allocStep at a time)
// as body bytes actually arrive, so a corrupt length prefix produces a
// clean error — never an unbounded (or even limit-sized) up-front
// allocation.
func readFrame(r io.Reader, limit int) ([]byte, error) {
	limit = min(limit, maxFrame)
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > limit {
		return nil, fmt.Errorf("serve: peer announced %d-byte frame (limit %d)", n, limit)
	}
	body := make([]byte, 0, min(n, allocStep))
	for len(body) < n {
		off := len(body)
		body = append(body, make([]byte, min(n-off, allocStep))...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// appendRequest encodes req onto b. A negative Timeout is sent as 0,
// which the server reads as "use the default", like a zero Timeout.
func appendRequest(b []byte, req *Request) []byte {
	b = append(b, protocolVersion, byte(req.Op))
	b = wire.AppendVarint(b, req.ID)
	b = wire.AppendVarint(b, uint64(len(req.Schema)))
	b = append(b, req.Schema...)
	b = wire.AppendVarint(b, uint64(max(req.Timeout.Microseconds(), 0)))
	return append(b, req.Payload...)
}

// parseRequest decodes a request body.
func parseRequest(b []byte) (Request, error) {
	var req Request
	if len(b) < 2 {
		return req, fmt.Errorf("serve: truncated request header")
	}
	if b[0] != protocolVersion {
		return req, fmt.Errorf("serve: protocol version %d, want %d", b[0], protocolVersion)
	}
	if op := Op(b[1]); op != OpDeserialize && op != OpSerialize {
		return req, fmt.Errorf("serve: unknown op %d", b[1])
	}
	req.Op = Op(b[1])
	b = b[2:]
	id, n, err := wire.ReadVarint(b)
	if err != nil {
		return req, fmt.Errorf("serve: bad request id: %w", err)
	}
	req.ID = id
	b = b[n:]
	slen, n, err := wire.ReadVarint(b)
	if err != nil {
		return req, fmt.Errorf("serve: bad schema length: %w", err)
	}
	b = b[n:]
	if uint64(len(b)) < slen {
		return req, fmt.Errorf("serve: truncated schema name")
	}
	req.Schema = string(b[:slen])
	b = b[slen:]
	us, n, err := wire.ReadVarint(b)
	if err != nil {
		return req, fmt.Errorf("serve: bad timeout: %w", err)
	}
	if us > math.MaxInt64/uint64(time.Microsecond) {
		return req, fmt.Errorf("serve: bad timeout: %d µs overflows a time.Duration", us)
	}
	req.Timeout = time.Duration(us) * time.Microsecond
	req.Payload = b[n:]
	return req, nil
}

// appendResponse encodes resp onto b.
func appendResponse(b []byte, resp *Response) []byte {
	var flags byte
	if resp.FellBack {
		flags |= flagFellBack
	}
	b = append(b, protocolVersion, byte(resp.Status), flags)
	b = wire.AppendVarint(b, resp.ID)
	var cy [8]byte
	binary.BigEndian.PutUint64(cy[:], math.Float64bits(resp.Cycles))
	b = append(b, cy[:]...)
	return append(b, resp.Payload...)
}

// parseResponse decodes a response body.
func parseResponse(b []byte) (Response, error) {
	var resp Response
	if len(b) < 3 {
		return resp, fmt.Errorf("serve: truncated response header")
	}
	if b[0] != protocolVersion {
		return resp, fmt.Errorf("serve: protocol version %d, want %d", b[0], protocolVersion)
	}
	if Status(b[1]) >= numStatuses {
		return resp, fmt.Errorf("serve: unknown status %d", b[1])
	}
	resp.Status = Status(b[1])
	resp.FellBack = b[2]&flagFellBack != 0
	b = b[3:]
	id, n, err := wire.ReadVarint(b)
	if err != nil {
		return resp, fmt.Errorf("serve: bad response id: %w", err)
	}
	resp.ID = id
	b = b[n:]
	if len(b) < 8 {
		return resp, fmt.Errorf("serve: truncated response cycles")
	}
	resp.Cycles = math.Float64frombits(binary.BigEndian.Uint64(b[:8]))
	resp.Payload = b[8:]
	return resp, nil
}
