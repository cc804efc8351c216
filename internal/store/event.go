package store

// WAL events: the dataset lifecycle mutations the store makes durable. One
// event is one WAL record payload; replaying the event sequence from a
// snapshot deterministically reproduces the registry, because every apply
// path funnels through the same Store.applyEvent the live mutation API uses.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/rankregret/rankregret/internal/dataset"
)

// EventKind classifies one durable registry mutation.
type EventKind uint8

const (
	// EventRegister (re)binds a name to a dataset, dropping any previous
	// version history under that name. The payload carries the dataset's
	// full binary encoding including its versioning state.
	EventRegister EventKind = iota + 1
	// EventAppend appends rows to the named dataset's current version.
	EventAppend
	// EventDelete removes rows by id from the named dataset's current
	// version (pre-delete indexing, exactly as dataset.Delete documents).
	EventDelete
	// EventDrop removes the name and its whole version history.
	EventDrop
)

// String returns the kind's log label.
func (k EventKind) String() string {
	switch k {
	case EventRegister:
		return "register"
	case EventAppend:
		return "append"
	case EventDelete:
		return "delete"
	case EventDrop:
		return "drop"
	default:
		return "unknown"
	}
}

// Event is one WAL record: a single durable mutation of the registry.
// Exactly the Kind-specific payload field is set.
type Event struct {
	Kind EventKind
	Name string
	// Dataset is the registered dataset (EventRegister only).
	Dataset *dataset.Dataset
	// Rows are the appended rows, each of the dataset's dimension
	// (EventAppend only).
	Rows [][]float64
	// IDs are the deleted row indices, in request order (EventDelete only).
	IDs []int
}

// ErrEventEncoding is wrapped by every decodeEvent failure.
var ErrEventEncoding = errors.New("store: invalid event encoding")

func evErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrEventEncoding, fmt.Sprintf(format, args...))
}

// maxEventName bounds encoded dataset names; the serving layer's names are
// short, and the bound keeps hostile WAL bytes from allocating wildly.
const maxEventName = 4096

// appendTo appends the event's encoding to buf. The encoding is
// self-contained: decodeEvent consumes the whole payload and rejects
// trailing bytes, so one WAL record is exactly one event.
func (ev Event) appendTo(buf []byte) ([]byte, error) {
	putUvarint := func(v uint64) { buf = dataset.AppendUvarint(buf, v) }
	if ev.Name == "" || len(ev.Name) > maxEventName {
		return nil, fmt.Errorf("store: event name %q out of range", ev.Name)
	}
	buf = append(buf, byte(ev.Kind))
	putUvarint(uint64(len(ev.Name)))
	buf = append(buf, ev.Name...)
	switch ev.Kind {
	case EventRegister:
		if ev.Dataset == nil {
			return nil, errors.New("store: register event without a dataset")
		}
		buf = ev.Dataset.AppendBinary(buf)
	case EventAppend:
		if len(ev.Rows) == 0 {
			return nil, errors.New("store: append event without rows")
		}
		d := len(ev.Rows[0])
		putUvarint(uint64(d))
		putUvarint(uint64(len(ev.Rows)))
		for _, row := range ev.Rows {
			if len(row) != d {
				return nil, fmt.Errorf("store: append event with ragged rows (%d vs %d)", len(row), d)
			}
			for _, v := range row {
				n := len(buf)
				buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
				binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
			}
		}
	case EventDelete:
		if len(ev.IDs) == 0 {
			return nil, errors.New("store: delete event without ids")
		}
		putUvarint(uint64(len(ev.IDs)))
		for _, id := range ev.IDs {
			if id < 0 {
				return nil, fmt.Errorf("store: delete event with negative id %d", id)
			}
			putUvarint(uint64(id))
		}
	case EventDrop:
	default:
		return nil, fmt.Errorf("store: unknown event kind %d", ev.Kind)
	}
	return buf, nil
}

// decodeEvent decodes one full WAL record payload. Arbitrary input returns
// an error wrapping ErrEventEncoding; it never panics.
func decodeEvent(data []byte) (Event, error) {
	var ev Event
	if len(data) == 0 {
		return ev, evErr("empty payload")
	}
	ev.Kind = EventKind(data[0])
	off := 1
	nameLen, n := binary.Uvarint(data[off:])
	if n <= 0 || nameLen == 0 || nameLen > maxEventName || nameLen > uint64(len(data)-off-n) {
		return ev, evErr("bad name length")
	}
	off += n
	ev.Name = string(data[off : off+int(nameLen)])
	off += int(nameLen)
	rest := data[off:]
	switch ev.Kind {
	case EventRegister:
		ds, consumed, err := dataset.DecodeBinary(rest)
		if err != nil {
			return ev, evErr("register payload: %v", err)
		}
		if consumed != len(rest) {
			return ev, evErr("register payload has %d trailing bytes", len(rest)-consumed)
		}
		ev.Dataset = ds
	case EventAppend:
		d, n := binary.Uvarint(rest)
		if n <= 0 || d == 0 || d > uint64(len(rest)) {
			return ev, evErr("bad append dimension")
		}
		rest = rest[n:]
		rows, n := binary.Uvarint(rest)
		if n <= 0 || rows == 0 {
			return ev, evErr("bad append row count")
		}
		rest = rest[n:]
		if rows > uint64(len(rest))/(8*d) || len(rest) != int(rows*d)*8 {
			return ev, evErr("append payload is %d bytes, want %d rows x %d attrs", len(rest), rows, d)
		}
		ev.Rows = make([][]float64, rows)
		for i := range ev.Rows {
			row := make([]float64, d)
			for j := range row {
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
			}
			if err := dataset.CheckFinite(i, row); err != nil {
				return ev, fmt.Errorf("%w: append %w", ErrEventEncoding, err)
			}
			ev.Rows[i] = row
		}
	case EventDelete:
		count, n := binary.Uvarint(rest)
		if n <= 0 || count == 0 || count > uint64(len(rest)-n) {
			return ev, evErr("bad delete id count")
		}
		rest = rest[n:]
		ev.IDs = make([]int, count)
		for i := range ev.IDs {
			id, n := binary.Uvarint(rest)
			if n <= 0 || id > uint64(math.MaxInt64/2) {
				return ev, evErr("bad delete id at %d", i)
			}
			rest = rest[n:]
			ev.IDs[i] = int(id)
		}
		if len(rest) != 0 {
			return ev, evErr("delete payload has %d trailing bytes", len(rest))
		}
	case EventDrop:
		if len(rest) != 0 {
			return ev, evErr("drop payload has %d trailing bytes", len(rest))
		}
	default:
		return ev, evErr("unknown kind %d", ev.Kind)
	}
	return ev, nil
}
