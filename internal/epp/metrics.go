package epp

import "sync/atomic"

// Metrics is a point-in-time snapshot of a server's per-command and
// per-result-code counters, suitable for the expvar debug surface. Maps hold
// only non-zero entries.
type Metrics struct {
	// Conns counts connections ever served (TCP accepts plus ServeConn).
	Conns uint64 `json:"connections"`
	// Commands counts dispatched requests by command name; unrecognised
	// commands land under "other".
	Commands map[string]uint64 `json:"commands"`
	// Codes counts responses by EPP result code; codes outside the protocol
	// constant set land under -1.
	Codes map[int]uint64 `json:"codes"`
}

// knownCommands and knownCodes fix the counter key space at construction so
// the record path is lock-free atomic increments with no map writes.
var knownCommands = []string{
	CmdLogin, CmdLogout, CmdCheck, CmdInfo, CmdCreate,
	CmdRenew, CmdUpdate, CmdDelete, CmdPoll, CmdTransfer,
}

var knownCodes = []int{
	CodeOK, CodeNoMessages, CodeAckToDequeue, CodeLoggedOut,
	CodeUnknownCommand, CodeParamRange, CodeNotLoggedIn, CodeAuthError,
	CodeAuthorization, CodeBadAuthInfo, CodeObjectExists, CodeObjectNotFound,
	CodeStatusProhibits, CodeRateLimited, CodeCommandFailed,
}

// serverCounters is the hot-path side of Metrics: one atomic per known
// command and result code, built once at NewServer.
type serverCounters struct {
	conns    atomic.Uint64
	commands map[string]*atomic.Uint64
	codes    map[int]*atomic.Uint64
	cmdOther atomic.Uint64
	cdOther  atomic.Uint64
}

func newServerCounters() *serverCounters {
	c := &serverCounters{
		commands: make(map[string]*atomic.Uint64, len(knownCommands)),
		codes:    make(map[int]*atomic.Uint64, len(knownCodes)),
	}
	for _, cmd := range knownCommands {
		c.commands[cmd] = new(atomic.Uint64)
	}
	for _, code := range knownCodes {
		c.codes[code] = new(atomic.Uint64)
	}
	return c
}

// record counts one dispatched command and its outcome. Reading a fixed map
// is safe concurrently; only the values mutate, atomically.
func (c *serverCounters) record(cmd string, code int) {
	if ctr, ok := c.commands[cmd]; ok {
		ctr.Add(1)
	} else {
		c.cmdOther.Add(1)
	}
	if ctr, ok := c.codes[code]; ok {
		ctr.Add(1)
	} else {
		c.cdOther.Add(1)
	}
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Conns:    s.counters.conns.Load(),
		Commands: make(map[string]uint64),
		Codes:    make(map[int]uint64),
	}
	for cmd, ctr := range s.counters.commands {
		if n := ctr.Load(); n > 0 {
			m.Commands[cmd] = n
		}
	}
	if n := s.counters.cmdOther.Load(); n > 0 {
		m.Commands["other"] = n
	}
	for code, ctr := range s.counters.codes {
		if n := ctr.Load(); n > 0 {
			m.Codes[code] = n
		}
	}
	if n := s.counters.cdOther.Load(); n > 0 {
		m.Codes[-1] = n
	}
	return m
}
