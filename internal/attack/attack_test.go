package attack

import (
	"testing"

	"repro/internal/isv"
	"repro/internal/kernel"
	"repro/internal/kimage"
	"repro/internal/memsim"
	"repro/internal/schemes"
)

var testImg = kimage.MustBuild(kimage.TestSpec())

type scenario struct {
	k                *kernel.Kernel
	victim, attacker *kernel.Task
	secret           []byte
	secretVA         uint64
}

func newScenario(t *testing.T) *scenario {
	t.Helper()
	k, err := kernel.New(kernel.DefaultConfig(), testImg)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := k.CreateProcess("victim")
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := k.CreateProcess("attacker")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("SPECTRE!")
	va, err := PlantSecret(k, victim, secret)
	if err != nil {
		t.Fatal(err)
	}
	return &scenario{k: k, victim: victim, attacker: attacker, secret: secret, secretVA: va}
}

// fullView trusts every kernel function; tests use it to isolate DSV
// effects from ISV effects.
func fullView(img *kimage.Image) *isv.View {
	v := isv.NewView()
	for _, f := range img.Funcs() {
		v.AddFunc(f.VA, f.NumInsts())
	}
	return v
}

// viewWithout trusts everything except the named functions.
func viewWithout(img *kimage.Image, names ...string) *isv.View {
	v := fullView(img)
	for _, n := range names {
		v.Exclude(img.MustFunc(n).VA)
	}
	return v
}

// --- Active attack (Figure 4.1, Table 4.1 row 1) ---

func TestActiveV1LeaksOnUnsafe(t *testing.T) {
	s := newScenario(t)
	res, err := ActiveSpectreV1(s.k, s.attacker, s.secretVA, len(s.secret))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret); got != len(s.secret) {
		t.Errorf("recovered %d/%d bytes: %q", got, len(s.secret), res.Recovered)
	}
}

func TestDSVBlocksActiveV1(t *testing.T) {
	s := newScenario(t)
	// Give both processes fully permissive ISVs so only DSVs are in play.
	s.k.InstallISV(s.victim, fullView(testImg))
	s.k.InstallISV(s.attacker, fullView(testImg))
	s.k.Core.Policy = schemes.NewPerspective(s.k.DSV, s.k.ISV, schemes.Perspective)
	res, err := ActiveSpectreV1(s.k, s.attacker, s.secretVA, len(s.secret))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret); got != 0 {
		t.Errorf("DSV leaked %d bytes: %q", got, res.Recovered)
	}
}

func TestFenceBlocksActiveV1(t *testing.T) {
	s := newScenario(t)
	s.k.Core.Policy = &schemes.FencePolicy{}
	res, err := ActiveSpectreV1(s.k, s.attacker, s.secretVA, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret[:2]); got != 0 {
		t.Errorf("FENCE leaked %d bytes", got)
	}
}

func TestDOMBlocksActiveV1(t *testing.T) {
	s := newScenario(t)
	s.k.Core.Policy = &schemes.DOMPolicy{}
	// Ensure the secret line is not in L1 (the attacker cannot put it
	// there); a fresh scenario guarantees it.
	res, err := ActiveSpectreV1(s.k, s.attacker, s.secretVA, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret[:2]); got != 0 {
		t.Errorf("DOM leaked %d bytes", got)
	}
}

func TestSTTBlocksActiveV1(t *testing.T) {
	s := newScenario(t)
	s.k.Core.Policy = &schemes.STTPolicy{}
	res, err := ActiveSpectreV1(s.k, s.attacker, s.secretVA, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret[:2]); got != 0 {
		t.Errorf("STT leaked %d bytes", got)
	}
}

// Spot mitigations do NOT block Spectre v1 (they only address v2/Meltdown)
// — Table 4.1's point that deployed mitigations leave gaps.
func TestSpotDoesNotBlockActiveV1(t *testing.T) {
	s := newScenario(t)
	s.k.Core.Policy = &schemes.SpotPolicy{KPTI: true}
	res, err := ActiveSpectreV1(s.k, s.attacker, s.secretVA, len(s.secret))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret); got != len(s.secret) {
		t.Errorf("spot mitigations unexpectedly blocked v1 (%d/%d)", got, len(s.secret))
	}
}

// --- Passive attacks (Figure 4.2, Table 4.1 rows 5-9) ---

func TestPassiveRetbleedLeaksOnUnsafe(t *testing.T) {
	s := newScenario(t)
	res, err := PassiveRetbleed(s.k, s.victim, s.attacker, s.secretVA, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret[:4]); got < 3 {
		t.Errorf("recovered %d/4 bytes: %q", got, res.Recovered)
	}
}

// DSVs alone CANNOT stop passive attacks: both the access and the transmit
// touch victim-owned data (§4.1). This is the paper's motivation for ISVs.
func TestDSVDoesNotBlockPassive(t *testing.T) {
	s := newScenario(t)
	s.k.InstallISV(s.victim, fullView(testImg)) // gadget trusted: ISV out of play
	s.k.InstallISV(s.attacker, fullView(testImg))
	s.k.Core.Policy = schemes.NewPerspective(s.k.DSV, s.k.ISV, schemes.Perspective)
	res, err := PassiveRetbleed(s.k, s.victim, s.attacker, s.secretVA, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret[:4]); got < 3 {
		t.Errorf("passive attack blocked by DSV alone (%d/4) — contradicts §4.1", got)
	}
}

// Excluding the gadget from the victim's ISV blocks the passive attack.
func TestISVBlocksPassiveRetbleed(t *testing.T) {
	s := newScenario(t)
	s.k.InstallISV(s.victim, viewWithout(testImg, "type_confuse_gadget"))
	s.k.InstallISV(s.attacker, fullView(testImg))
	s.k.Core.Policy = schemes.NewPerspective(s.k.DSV, s.k.ISV, schemes.Perspective)
	res, err := PassiveRetbleed(s.k, s.victim, s.attacker, s.secretVA, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret[:4]); got != 0 {
		t.Errorf("ISV leaked %d bytes: %q", got, res.Recovered)
	}
}

func TestPassiveSpectreV2LeaksOnUnsafe(t *testing.T) {
	s := newScenario(t)
	res, err := PassiveSpectreV2(s.k, s.victim, s.attacker, s.secretVA, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret[:4]); got < 3 {
		t.Errorf("recovered %d/4 bytes: %q", got, res.Recovered)
	}
}

func TestISVBlocksPassiveSpectreV2(t *testing.T) {
	s := newScenario(t)
	s.k.InstallISV(s.victim, viewWithout(testImg, "type_confuse_gadget"))
	s.k.InstallISV(s.attacker, fullView(testImg))
	s.k.Core.Policy = schemes.NewPerspective(s.k.DSV, s.k.ISV, schemes.Perspective)
	res, err := PassiveSpectreV2(s.k, s.victim, s.attacker, s.secretVA, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Match(s.secret[:4]); got != 0 {
		t.Errorf("ISV leaked %d bytes via v2: %q", got, res.Recovered)
	}
}

// Retpoline blocks the v2 (BTB) flavour but NOT the RSB flavour — that is
// exactly Retbleed (Table 4.1 row 7).
func TestRetpolineBlocksV2ButNotRetbleed(t *testing.T) {
	s := newScenario(t)
	s.k.Core.Policy = &schemes.SpotPolicy{KPTI: false}
	v2, err := PassiveSpectreV2(s.k, s.victim, s.attacker, s.secretVA, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.Match(s.secret[:3]); got != 0 {
		t.Errorf("retpoline leaked %d bytes via v2", got)
	}
	rb, err := PassiveRetbleed(s.k, s.victim, s.attacker, s.secretVA, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := rb.Match(s.secret[:3]); got < 2 {
		t.Errorf("Retbleed did not bypass retpoline (%d/3)", got)
	}
}

// The pliable interface: a gadget discovered at runtime is excluded from
// the installed ISV — live, no reboot — and the attack stops (§5.4).
func TestLivePatchViaISVExclude(t *testing.T) {
	s := newScenario(t)
	gadget := testImg.MustFunc("type_confuse_gadget")
	s.k.InstallISV(s.victim, fullView(testImg)) // gadget initially trusted
	s.k.InstallISV(s.attacker, fullView(testImg))
	s.k.Core.Policy = schemes.NewPerspective(s.k.DSV, s.k.ISV, schemes.Perspective)

	before, err := PassiveRetbleed(s.k, s.victim, s.attacker, s.secretVA, 2)
	if err != nil {
		t.Fatal(err)
	}
	if before.Match(s.secret[:2]) == 0 {
		t.Fatal("attack did not work before the patch; patch test is vacuous")
	}
	// The "patch": exclude the gadget from the victim's live view.
	if !s.k.ISV.ExcludeFunc(s.victim.Ctx(), gadget.VA, gadget.NumInsts()) {
		t.Fatal("ExcludeFunc failed")
	}
	after, err := PassiveRetbleed(s.k, s.victim, s.attacker, s.secretVA, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Match(s.secret[:2]); got != 0 {
		t.Errorf("attack still leaks %d bytes after live patch", got)
	}
}

func TestCorpusShape(t *testing.T) {
	if len(Corpus) != 9 {
		t.Fatalf("corpus rows = %d, want 9 (Table 4.1)", len(Corpus))
	}
	if len(ActiveRows()) != 4 || len(PassiveRows()) != 5 {
		t.Errorf("active/passive split = %d/%d, want 4/5",
			len(ActiveRows()), len(PassiveRows()))
	}
	for _, r := range Corpus {
		if r.PoC == "" || r.Refs == "" || r.Origin == "" {
			t.Errorf("row %d incomplete", r.Row)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Recovered: []byte("AB"), Hits: []bool{true, false}}
	if r.HitCount() != 1 {
		t.Error("HitCount wrong")
	}
	if r.Match([]byte("AB")) != 1 {
		t.Error("Match must require a hit")
	}
	if r.Match([]byte("XY")) != 0 {
		t.Error("Match on wrong bytes")
	}
}

// Every Spectre v1 CVE carrier of Table 4.1 (ioctl row 1, ptrace row 2, bpf
// rows 3-4) leaks on UNSAFE and is blocked by DSVs.
func TestActiveV1AllCVECarriers(t *testing.T) {
	carriers := map[string]int{
		"ioctl-xusb":   kimage.NRIoctl,
		"ptrace-peek":  kimage.NRPtrace,
		"bpf-verifier": kimage.NRBPF,
	}
	for name, nr := range carriers {
		nr := nr
		t.Run(name, func(t *testing.T) {
			s := newScenario(t)
			res, err := ActiveV1Via(s.k, s.attacker, nr, s.secretVA, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Match(s.secret[:3]); got != 3 {
				t.Errorf("UNSAFE: leaked %d/3 via %s", got, name)
			}

			p := newScenario(t)
			p.k.InstallISV(p.victim, fullView(testImg))
			p.k.InstallISV(p.attacker, fullView(testImg))
			p.k.Core.Policy = schemes.NewPerspective(p.k.DSV, p.k.ISV, schemes.Perspective)
			res, err = ActiveV1Via(p.k, p.attacker, nr, p.secretVA, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Match(p.secret[:3]); got != 0 {
				t.Errorf("DSV: leaked %d/3 via %s", got, name)
			}
		})
	}
}

// A secret page that no longer translates must fail loudly: the attack
// would otherwise aim at direct-map VA 0 with a nil error.
func TestDirectMapAliasUnmapped(t *testing.T) {
	s := newScenario(t)
	va, err := s.k.Syscall(s.victim, kimage.NRMmap, memsim.PageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := directMapAlias(s.victim, va); err != nil {
		t.Fatalf("mapped page: %v", err)
	}
	if _, err := s.k.Syscall(s.victim, kimage.NRMunmap, va, memsim.PageSize); err != nil {
		t.Fatal(err)
	}
	got, err := directMapAlias(s.victim, va)
	if err == nil {
		t.Fatalf("unmapped page: got VA %#x and a nil error", got)
	}
	if got != 0 {
		t.Errorf("unmapped page: VA %#x alongside the error, want 0", got)
	}
}
