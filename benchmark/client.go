package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// client is the benchmark's own ojserver protocol client: one command
// line out, one JSON line back. It does not import internal/workload's
// client, so a change to that client cannot change what is measured.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	line []byte // reused response buffer

	bytesOut, bytesIn int64
}

// reply is the wire-level view of one response line.
type reply struct {
	OK     bool   `json:"ok"`
	Output string `json:"output"`
	Rows   int64  `json:"rows"`
	Tuples int64  `json:"tuples"`
	Cache  string `json:"cache"`
	Error  string `json:"error"`
	Code   string `json:"code"`
}

// requestTimeout bounds one round trip; the slowest set-up command (a
// 50,000-row table literal) takes well under a second.
const requestTimeout = 30 * time.Second

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	if _, err := c.roundTrip("", false); err != nil { // the hello line
		conn.Close()
		return nil, fmt.Errorf("hello from %s: %w", addr, err)
	}
	return c, nil
}

func (c *client) close() { c.conn.Close() }

// roundTrip sends one command (none when send is false, to read the
// hello) and returns the raw response line, valid until the next call.
func (c *client) roundTrip(cmd string, send bool) ([]byte, error) {
	// A server that stops answering fails the run instead of hanging it.
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, err
	}
	if send {
		c.line = append(append(c.line[:0], cmd...), '\n')
		n, err := c.conn.Write(c.line)
		c.bytesOut += int64(n)
		if err != nil {
			return nil, err
		}
	}
	c.line = c.line[:0]
	for {
		frag, err := c.r.ReadSlice('\n')
		c.line = append(c.line, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		c.bytesIn += int64(len(c.line))
		if err != nil {
			return nil, err
		}
		return c.line, nil
	}
}

// do sends a command and decodes the whole response; set-up and the
// oracle use it, the timed loop uses roundTrip and parseTail.
func (c *client) do(cmd string) (reply, error) {
	line, err := c.roundTrip(cmd, true)
	if err != nil {
		return reply{}, fmt.Errorf("%.40q: %w", cmd, err)
	}
	var r reply
	if err := json.Unmarshal(line, &r); err != nil {
		return reply{}, fmt.Errorf("%.40q: decode response: %w", cmd, err)
	}
	return r, nil
}

// mustOK is do for commands that cannot legitimately fail.
func (c *client) mustOK(cmd string) (reply, error) {
	r, err := c.do(cmd)
	if err != nil {
		return r, err
	}
	if !r.OK {
		return r, fmt.Errorf("%.60q: server answered %s: %s", cmd, r.Code, r.Error)
	}
	return r, nil
}

var (
	okPrefix  = []byte(`{"ok":true`)
	rowsField = []byte(`,"rows":`)
)

// parseTail reads ok, rows, tuples and cache from a response line
// without decoding the rendered result, which on wide_result is most of
// a megabyte: the benchmark's own JSON decoding would otherwise cost as
// much CPU as the server's encoding. The Response struct marshals ok
// first and rows/tuples/cache after output; the rendered table never
// contains a double quote, so the last `,"rows":` starts the tail.
func parseTail(line []byte) (reply, error) {
	if !bytes.HasPrefix(line, okPrefix) {
		var r reply
		if err := json.Unmarshal(line, &r); err != nil {
			return r, fmt.Errorf("decode response: %w", err)
		}
		return r, nil
	}
	i := bytes.LastIndex(line, rowsField)
	if i < 0 {
		return reply{OK: true}, nil // zero rows: the field is omitted
	}
	tail := append([]byte{'{'}, line[i+1:]...)
	r := reply{OK: true}
	if err := json.Unmarshal(tail, &r); err != nil {
		return r, fmt.Errorf("decode response tail %.60q: %w", tail, err)
	}
	return r, nil
}
