package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// The canonical operands testdata/ops.golden was generated from.
var (
	goldenArgs = Args{
		ID: splid.MustParse("1.3.5"), ID2: splid.MustParse("1.3.7"),
		Name: "lend", Bytes: []byte("v\x00alue"), Flag: true,
	}
	goldenNode   = xmlmodel.Node{ID: splid.MustParse("1.3.5.3"), Kind: xmlmodel.KindElement, Name: 7}
	goldenResult = Result{
		Node: goldenNode,
		Nodes: []xmlmodel.Node{goldenNode,
			{ID: splid.MustParse("1.3.5.3.3"), Kind: xmlmodel.KindText, Value: []byte("text")}},
		Bytes: []byte("v\x00alue"),
	}
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	if s == "-" {
		return nil
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpsGolden holds the shape-driven codec to the bytes the hand-written
// per-op encoders produced: ops.golden carries one request body and one
// response body per node opcode, generated at the last commit that still had
// those encoders. Any table row whose shape drifts from what that commit put
// on the wire fails here.
func TestOpsGolden(t *testing.T) {
	f, err := os.Open("testdata/ops.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[Op]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "" {
			continue
		}
		var code uint8
		var name, reqHex, respHex string
		if _, err := fmt.Sscan(line, &code, &name, &reqHex, &respHex); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		op := Op(code)
		seen[op] = true
		spec, ok := op.Spec()
		if !ok || spec.Name != name || op.String() != name {
			t.Errorf("opcode %d: table says %q (known=%v), golden says %q", code, spec.Name, ok, name)
			continue
		}
		wantReq, wantResp := unhex(t, reqHex), unhex(t, respHex)
		if got := AppendArgs(nil, spec.Args, goldenArgs); !bytes.Equal(got, wantReq) {
			t.Errorf("%s request body:\n got  %x\n want %x", name, got, wantReq)
		}
		if got := AppendResult(nil, spec.Result, goldenResult); !bytes.Equal(got, wantResp) {
			t.Errorf("%s response body:\n got  %x\n want %x", name, got, wantResp)
		}
		// And back: what the old bytes decode to re-encodes to the old bytes.
		a, err := DecodeArgs(spec.Args, wantReq)
		if err != nil || !bytes.Equal(AppendArgs(nil, spec.Args, a), wantReq) {
			t.Errorf("%s request does not round-trip: %+v, err %v", name, a, err)
		}
		r, err := DecodeResult(spec.Result, wantResp)
		if err != nil || !bytes.Equal(AppendResult(nil, spec.Result, r), wantResp) {
			t.Errorf("%s response does not round-trip: %+v, err %v", name, r, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for op := OpGetNode; int(op) < NumOps; op++ {
		if _, ok := op.Spec(); ok && !seen[op] {
			t.Errorf("operation table row %s has no golden bytes", op)
		}
	}
}

// TestOpTable checks the table's own invariants: the control opcodes keep
// their names, and holes and out-of-range opcodes are unknown.
func TestOpTable(t *testing.T) {
	for op, name := range map[Op]string{
		OpOpenSession: "OpenSession", OpCloseSession: "CloseSession", OpBegin: "Begin",
		OpCommit: "Commit", OpAbort: "Abort", OpCatalog: "Catalog", OpLookupName: "LookupName",
		OpStats: "Stats", OpAudit: "Audit", OpPing: "Ping", OpHeartbeat: "Heartbeat",
		OpResumeSession: "ResumeSession",
	} {
		if spec, ok := op.Spec(); !ok || op.String() != name || spec.Args != 0 || spec.Result != ResNone || spec.Write {
			t.Errorf("control opcode %d: %q %+v known=%v, want bare %q", op, op.String(), spec, ok, name)
		}
	}
	for _, op := range []Op{0, 13, 15, Op(NumOps), 255} {
		if _, ok := op.Spec(); ok || op.String() != fmt.Sprintf("Op(%d)", uint8(op)) {
			t.Errorf("opcode %d: known=%v name %q, want unknown", op, ok, op.String())
		}
	}
}
