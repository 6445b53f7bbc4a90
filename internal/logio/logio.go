// Package logio serializes workflow logs. Two formats are provided:
//
//   - FormatJSONL: one JSON object per record, self-describing and easy to
//     consume from other tooling.
//   - FormatText: a compact tab-separated form close to the paper's Figure 3
//     presentation, convenient for eyeballing and diffing.
//
// Both formats round-trip exactly: Decode(Encode(L)) equals L, including
// attribute value kinds. Readers and writers are streaming, so logs larger
// than memory can be processed record by record.
//
// A FormatJSONL line is read by one scanner, in a single pass without
// reflection, on every path that turns bytes into records: file loads,
// append bodies and WAL replay. A line it does not read goes to
// encoding/json, which gives the same record or the error it always gave;
// FuzzDecodeRecord holds the two paths together. A Reader keeps one string
// per distinct activity and attribute name it has read.
package logio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"wlq/internal/wlog"
)

// Format selects a serialization format.
type Format int

// Supported formats.
const (
	FormatJSONL Format = iota + 1
	FormatText
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatJSONL:
		return "jsonl"
	case FormatText:
		return "text"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ErrUnknownFormat is returned for file extensions FormatForPath cannot map.
var ErrUnknownFormat = errors.New("logio: unknown log format")

// FormatForPath infers the format from a file extension: .jsonl/.json map to
// FormatJSONL; .log/.txt/.tsv map to FormatText.
func FormatForPath(path string) (Format, error) {
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".jsonl", ".json":
		return FormatJSONL, nil
	case ".log", ".txt", ".tsv":
		return FormatText, nil
	default:
		return 0, fmt.Errorf("%w: extension %q", ErrUnknownFormat, filepath.Ext(path))
	}
}

// jsonRecord is the wire form of a record in FormatJSONL. Attribute values
// are carried in the textual syntax of wlog.Value, which is kind-preserving.
type jsonRecord struct {
	LSN uint64            `json:"lsn"`
	WID uint64            `json:"wid"`
	Seq uint64            `json:"seq"`
	Act string            `json:"act"`
	In  map[string]string `json:"in,omitempty"`
	Out map[string]string `json:"out,omitempty"`
}

func attrsToWire(m wlog.AttrMap) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v.String()
	}
	return out
}

func attrsFromWire(m map[string]string) (wlog.AttrMap, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(wlog.AttrMap, len(m))
	for k, s := range m {
		v, err := wlog.ParseValue(s)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// EncodeRecord renders one record as a single FormatJSONL line without the
// trailing newline — the wire form of the live-append API and the payload of
// a WAL frame, and what Writer.Write writes a FormatJSONL line as.
func EncodeRecord(r wlog.Record) ([]byte, error) {
	line, err := json.Marshal(jsonRecord{
		LSN: r.LSN, WID: r.WID, Seq: r.Seq, Act: r.Activity,
		In: attrsToWire(r.In), Out: attrsToWire(r.Out),
	})
	if err != nil {
		return nil, fmt.Errorf("logio: marshal lsn=%d: %w", r.LSN, err)
	}
	return line, nil
}

// DecodeRecord inverts EncodeRecord: one FormatJSONL line (surrounding
// whitespace tolerated) back to a record. The line is read by one scanner
// (scanRecord), without reflection; a line it does not read, such as one
// with a \u escape, a key in other case or a malformed value, goes to
// encoding/json, which gives the same record or the error. FuzzDecodeRecord
// holds the two paths together.
func DecodeRecord(line []byte) (wlog.Record, error) {
	r, err := decodeRecord(line, nil)
	if err != nil {
		return wlog.Record{}, fmt.Errorf("logio: %w", err)
	}
	return r, nil
}

// decodeRecord is DecodeRecord with its errors unprefixed, for the reader,
// which prefixes them with the line, and names interned in names (nil:
// none).
func decodeRecord(line []byte, names nameTable) (wlog.Record, error) {
	if r, ok := scanRecord(line, names); ok {
		return r, nil
	}
	return unmarshalRecord(line)
}

// unmarshalRecord reads a line through encoding/json: the reader of every
// line scanRecord does not read, and the reference it is held to.
func unmarshalRecord(line []byte) (wlog.Record, error) {
	var jr jsonRecord
	if err := json.Unmarshal(line, &jr); err != nil {
		return wlog.Record{}, err
	}
	in, err := attrsFromWire(jr.In)
	if err != nil {
		return wlog.Record{}, err
	}
	out, err := attrsFromWire(jr.Out)
	if err != nil {
		return wlog.Record{}, err
	}
	return wlog.Record{
		LSN: jr.LSN, WID: jr.WID, Seq: jr.Seq, Activity: jr.Act,
		In: in, Out: out,
	}, nil
}

// Writer streams records to an underlying io.Writer in a fixed format.
// Writers buffer internally; call Flush (or Close) when done.
type Writer struct {
	w      *bufio.Writer
	format Format
}

// NewWriter creates a streaming log writer.
func NewWriter(w io.Writer, format Format) *Writer {
	return &Writer{w: bufio.NewWriter(w), format: format}
}

// Write emits one record.
func (w *Writer) Write(r wlog.Record) error {
	switch w.format {
	case FormatJSONL:
		line, err := EncodeRecord(r)
		if err != nil {
			return err
		}
		if _, err := w.w.Write(line); err != nil {
			return err
		}
		return w.w.WriteByte('\n')
	case FormatText:
		_, err := fmt.Fprintf(w.w, "%d\t%d\t%d\t%s\t%s\t%s\n",
			r.LSN, r.WID, r.Seq, encodeTextActivity(r.Activity),
			encodeTextAttrs(r.In), encodeTextAttrs(r.Out))
		return err
	default:
		return fmt.Errorf("%w: %v", ErrUnknownFormat, w.format)
	}
}

// WriteLog emits every record of a log.
func (w *Writer) WriteLog(l *wlog.Log) error {
	for i := 0; i < l.Len(); i++ {
		if err := w.Write(l.Record(i)); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// encodeTextActivity renders an activity name, quoting it when it contains
// characters that would break the tab-separated layout (or a leading quote
// or '#', which the reader would misinterpret).
func encodeTextActivity(name string) string {
	if name == "" || strings.ContainsAny(name, "\t\n\r") ||
		strings.HasPrefix(name, `"`) || strings.HasPrefix(name, "#") {
		return strconv.Quote(name)
	}
	return name
}

// decodeTextActivity inverts encodeTextActivity.
func decodeTextActivity(field string) (string, error) {
	if strings.HasPrefix(field, `"`) {
		name, err := strconv.Unquote(field)
		if err != nil {
			return "", fmt.Errorf("logio: malformed quoted activity %s", field)
		}
		return name, nil
	}
	return field, nil
}

// encodeTextAttrs renders an attribute map as "k=v;k=v" ("-" when empty).
// Value.String quotes any payload containing '=', ';' or whitespace, and
// attribute names containing structural characters are quoted the same way,
// so the encoding is unambiguous.
func encodeTextAttrs(m wlog.AttrMap) string {
	if len(m) == 0 {
		return "-"
	}
	var sb strings.Builder
	for i, name := range m.Names() {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(encodeAttrName(name))
		sb.WriteByte('=')
		sb.WriteString(m[name].String())
	}
	return sb.String()
}

// encodeAttrName quotes an attribute name when printing it bare would break
// the k=v;k=v layout (or be mistaken for a quoted name on read).
func encodeAttrName(name string) string {
	if name == "" || strings.ContainsAny(name, "=;\t\n\r ") || strings.HasPrefix(name, `"`) {
		return strconv.Quote(name)
	}
	return name
}

// decodeAttrName inverts encodeAttrName.
func decodeAttrName(field string) (string, error) {
	if strings.HasPrefix(field, `"`) {
		name, err := strconv.Unquote(field)
		if err != nil {
			return "", fmt.Errorf("logio: malformed quoted attribute name %s", field)
		}
		return name, nil
	}
	return field, nil
}

func decodeTextAttrs(s string) (wlog.AttrMap, error) {
	if s == "-" || s == "" {
		return nil, nil
	}
	m := make(wlog.AttrMap)
	for _, pair := range splitOutsideQuotes(s, ';') {
		rawName, raw, ok := cutOutsideQuotes(pair, '=')
		if !ok {
			return nil, fmt.Errorf("logio: malformed attribute pair %q", pair)
		}
		name, err := decodeAttrName(rawName)
		if err != nil {
			return nil, err
		}
		v, err := wlog.ParseValue(raw)
		if err != nil {
			return nil, fmt.Errorf("logio: attribute %q: %w", name, err)
		}
		m[name] = v
	}
	return m, nil
}

// splitOutsideQuotes splits s on sep, ignoring separators inside double
// quotes (honoring backslash escapes, as produced by strconv.Quote).
func splitOutsideQuotes(s string, sep byte) []string {
	var parts []string
	start := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && inQuote:
			i++ // skip escaped character
		case c == '"':
			inQuote = !inQuote
		case c == sep && !inQuote:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// cutOutsideQuotes is strings.Cut for the first sep outside quotes.
func cutOutsideQuotes(s string, sep byte) (before, after string, found bool) {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && inQuote:
			i++
		case c == '"':
			inQuote = !inQuote
		case c == sep && !inQuote:
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// Reader streams records from an underlying io.Reader.
type Reader struct {
	sc     *bufio.Scanner
	format Format
	line   int
	names  nameTable
}

// NewReader creates a streaming log reader.
func NewReader(r io.Reader, format Format) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{sc: sc, format: format, names: make(nameTable)}
}

// Read returns the next record, or io.EOF after the last one. Blank lines
// and (in text format) lines starting with '#' are skipped.
func (r *Reader) Read() (wlog.Record, error) {
	for r.sc.Scan() {
		r.line++
		line := bytes.TrimRight(r.sc.Bytes(), "\r")
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if r.format == FormatText && line[0] == '#' {
			continue
		}
		rec, err := r.decodeLine(line)
		if err != nil {
			// A read error mid-line hands the scanner a torn final token;
			// its parse failure is a symptom, the I/O error the cause.
			if rerr := r.sc.Err(); rerr != nil {
				return wlog.Record{}, fmt.Errorf("logio: line %d: read interrupted: %w", r.line, rerr)
			}
			return wlog.Record{}, fmt.Errorf("logio: line %d: %w", r.line, err)
		}
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return wlog.Record{}, fmt.Errorf("logio: line %d: %w", r.line+1, err)
	}
	return wlog.Record{}, io.EOF
}

// Each feeds the remaining records to fn in the order the source holds
// them, each as soon as it is read, and returns the first read error. The
// records are not validated or kept: a caller that checks or stores them as
// they come never holds the log whole.
func (r *Reader) Each(fn func(wlog.Record)) error {
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(rec)
	}
}

func (r *Reader) decodeLine(raw []byte) (wlog.Record, error) {
	switch r.format {
	case FormatJSONL:
		return decodeRecord(raw, r.names)
	case FormatText:
		fields := strings.Split(string(raw), "\t")
		if len(fields) != 6 {
			return wlog.Record{}, fmt.Errorf("want 6 tab-separated fields, got %d", len(fields))
		}
		lsn, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return wlog.Record{}, fmt.Errorf("lsn: %w", err)
		}
		wid, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return wlog.Record{}, fmt.Errorf("wid: %w", err)
		}
		seq, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return wlog.Record{}, fmt.Errorf("is-lsn: %w", err)
		}
		in, err := decodeTextAttrs(fields[4])
		if err != nil {
			return wlog.Record{}, err
		}
		out, err := decodeTextAttrs(fields[5])
		if err != nil {
			return wlog.Record{}, err
		}
		activity, err := decodeTextActivity(fields[3])
		if err != nil {
			return wlog.Record{}, err
		}
		return wlog.Record{
			LSN: lsn, WID: wid, Seq: seq, Activity: activity,
			In: in, Out: out,
		}, nil
	default:
		return wlog.Record{}, fmt.Errorf("%w: %v", ErrUnknownFormat, r.format)
	}
}

// ReadAll consumes the remaining records and assembles a validated Log.
func (r *Reader) ReadAll() (*wlog.Log, error) {
	var records []wlog.Record
	if err := r.Each(func(rec wlog.Record) { records = append(records, rec) }); err != nil {
		return nil, err
	}
	return wlog.New(records)
}

// Encode writes an entire log to w in the given format.
func Encode(w io.Writer, l *wlog.Log, format Format) error {
	lw := NewWriter(w, format)
	if err := lw.WriteLog(l); err != nil {
		return err
	}
	return lw.Flush()
}

// Decode reads an entire validated log from r in the given format.
func Decode(r io.Reader, format Format) (*wlog.Log, error) {
	return NewReader(r, format).ReadAll()
}

// WriteFile writes a log to path, inferring the format from the extension.
func WriteFile(path string, l *wlog.Log) (err error) {
	format, err := FormatForPath(path)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return Encode(f, l, format)
}

// ReadFileAny reads a validated log from path like ReadFile, but also
// accepts the import formats: .csv (headered event log) and .xes
// (IEEE 1849), both with default import options. It is the one-stop loader
// the CLI and the query service use for file arguments.
func ReadFileAny(path string) (*wlog.Log, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ImportCSV(f, CSVOptions{})
	case ".xes":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ImportXES(f, XESOptions{})
	default:
		return ReadFile(path)
	}
}

// ReadFile reads a validated log from path, inferring the format from the
// extension.
func ReadFile(path string) (*wlog.Log, error) {
	f, format, err := open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f, format)
}

// ReadFileFunc is Reader.Each over the file at path, its format inferred
// from the extension: the file's records go to fn one at a time, unchecked,
// in file order.
func ReadFileFunc(path string, fn func(wlog.Record)) error {
	f, format, err := open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return NewReader(f, format).Each(fn)
}

// open opens a log file in a native format.
func open(path string) (*os.File, Format, error) {
	format, err := FormatForPath(path)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(path)
	return f, format, err
}
