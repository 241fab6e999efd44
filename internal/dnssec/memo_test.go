package dnssec

import (
	"errors"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// memoFixture is one memo with its counters and a valid signed RRset.
type memoFixture struct {
	memo *VerifyMemo
	reg  *obs.Registry
	zone dnswire.Name
	set  RRset
	sig  dnswire.RRSIG
	key  dnswire.DNSKEY
}

func newMemoFixture(t testing.TB, alg dnswire.SecAlgorithm) *memoFixture {
	t.Helper()
	f := &memoFixture{reg: obs.NewRegistry(), zone: dnswire.MustParseName("example.com"), set: sampleSet(t)}
	f.memo = NewVerifyMemo(f.reg)
	kp := genKey(t, alg, false)
	f.key = kp.DNSKEY()
	var err error
	if f.sig, err = Sign(f.set, kp, f.zone, testInception, testExpiration); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *memoFixture) requests() uint64 {
	return f.reg.Counter("resolver_sig_verifications_total", "").Value()
}

func (f *memoFixture) hits() uint64 {
	return f.reg.Counter("resolver_sig_verify_memo_hits_total", "").Value()
}

func (f *memoFixture) entries() int {
	f.memo.mu.Lock()
	defer f.memo.mu.Unlock()
	return len(f.memo.m)
}

// verify runs VerifyWithRRSIG through the memo and reports whether the
// call was answered from it.
func (f *memoFixture) verify(set RRset, sig dnswire.RRSIG, key dnswire.DNSKEY, now uint32) (hit bool, err error) {
	before := f.hits()
	err = f.memo.VerifyWithRRSIG(set, sig, key, f.zone, now)
	return f.hits() > before, err
}

// sameTagKey returns a DNSKEY with different public key bytes and the
// same key tag: the tag is a sum of 16-bit words, so exchanging two
// aligned words of the key (which starts at RDATA offset 4) keeps it.
func sameTagKey(t *testing.T, key dnswire.DNSKEY) dnswire.DNSKEY {
	t.Helper()
	pk := append([]byte(nil), key.PublicKey...)
	for i := 2; i+1 < len(pk); i += 2 {
		if pk[0] != pk[i] || pk[1] != pk[i+1] {
			pk[0], pk[1], pk[i], pk[i+1] = pk[i], pk[i+1], pk[0], pk[1]
			other := key
			other.PublicKey = pk
			if KeyTag(other) != KeyTag(key) {
				t.Fatalf("word swap changed the key tag: %d vs %d", KeyTag(other), KeyTag(key))
			}
			return other
		}
	}
	t.Fatal("public key is one repeated word")
	return key
}

// TestVerifyMemoCannotBeFooled memoizes a valid triple and then changes
// one thing at a time: each variant must miss the memo and fail, and
// the untouched triple must still hit and verify afterwards.
func TestVerifyMemoCannotBeFooled(t *testing.T) {
	for _, alg := range []dnswire.SecAlgorithm{dnswire.AlgECDSAP256SHA256, dnswire.AlgEd25519} {
		t.Run(alg.String(), func(t *testing.T) {
			f := newMemoFixture(t, alg)
			if hit, err := f.verify(f.set, f.sig, f.key, testNow); err != nil || hit {
				t.Fatalf("first verification: err %v, hit %v", err, hit)
			}
			if hit, err := f.verify(f.set, f.sig, f.key, testNow); err != nil || !hit {
				t.Fatalf("second verification: err %v, hit %v", err, hit)
			}

			flippedSig := f.sig
			flippedSig.Signature = append([]byte(nil), f.sig.Signature...)
			flippedSig.Signature[len(flippedSig.Signature)-1] ^= 0x01

			flippedData := f.set
			flippedData.Datas = append([]dnswire.RData(nil), f.set.Datas...)
			flippedData.Datas[1] = dnswire.A{Addr: netip.MustParseAddr("192.0.2.3")} // .2 ^ 0x01

			flippedOwner := f.set
			flippedOwner.Name = dnswire.MustParseName("wwv.example.com") // 'w' ^ 0x01

			flippedTTL := f.sig
			flippedTTL.OrigTTL ^= 1

			// A same-tag stand-in for a P-256 key is off the curve; for
			// Ed25519 it is just another key.
			sameTagErr := ErrBadSignature
			if alg == dnswire.AlgECDSAP256SHA256 {
				sameTagErr = ErrBadPublicKey
			}
			for _, tc := range []struct {
				name string
				set  RRset
				sig  dnswire.RRSIG
				key  dnswire.DNSKEY
				want error
			}{
				{"signature bit", f.set, flippedSig, f.key, ErrBadSignature},
				{"rdata bit", flippedData, f.sig, f.key, ErrBadSignature},
				{"owner bit", flippedOwner, f.sig, f.key, ErrBadSignature},
				{"OrigTTL bit", f.set, flippedTTL, f.key, ErrBadSignature},
				{"same-tag key", f.set, f.sig, sameTagKey(t, f.key), sameTagErr},
			} {
				hit, err := f.verify(tc.set, tc.sig, tc.key, testNow)
				if hit || !errors.Is(err, tc.want) {
					t.Errorf("%s: err %v (want %v), hit %v (want miss)", tc.name, err, tc.want, hit)
				}
				// The failed verdict is an entry too: same error, no
				// second verification.
				hit, again := f.verify(tc.set, tc.sig, tc.key, testNow)
				if !hit || again != err {
					t.Errorf("%s repeated: err %v (want the memoized %v), hit %v", tc.name, again, err, hit)
				}
			}
			if hit, err := f.verify(f.set, f.sig, f.key, testNow); err != nil || !hit {
				t.Fatalf("original triple after the variants: err %v, hit %v", err, hit)
			}
		})
	}
}

// TestVerifyMemoCoversOnlyBytes pins what stays outside the memo: with
// the cryptographic verdict memoized valid, the validity window and
// every structural RRSIG/DNSKEY check still decide per call, without
// reaching the memo; malformed wire shapes never become entries.
func TestVerifyMemoCoversOnlyBytes(t *testing.T) {
	f := newMemoFixture(t, dnswire.AlgECDSAP256SHA256)
	if _, err := f.verify(f.set, f.sig, f.key, testNow); err != nil {
		t.Fatal(err)
	}
	requests, entries := f.requests(), f.entries()

	if _, err := f.verify(f.set, f.sig, f.key, testExpiration+1); !errors.Is(err, ErrSigExpired) {
		t.Errorf("past expiration: %v, want ErrSigExpired", err)
	}
	if _, err := f.verify(f.set, f.sig, f.key, testInception-1); !errors.Is(err, ErrSigNotYetValid) {
		t.Errorf("before inception: %v, want ErrSigNotYetValid", err)
	}

	nonZone := f.key
	nonZone.Flags &^= dnswire.DNSKEYFlagZone
	proto := f.key
	proto.Protocol = 2
	otherAlg := f.sig
	otherAlg.Algorithm = dnswire.AlgEd25519
	otherTag := f.sig
	otherTag.KeyTag++
	otherSigner := f.sig
	otherSigner.SignerName = dnswire.MustParseName("com")
	outside := f.set
	outside.Name = dnswire.MustParseName("www.example.org")
	labels := f.sig
	labels.Labels = 9
	otherType := f.sig
	otherType.TypeCovered = dnswire.TypeAAAA
	shortSig := f.sig
	shortSig.Signature = f.sig.Signature[:63]
	for _, tc := range []struct {
		name string
		set  RRset
		sig  dnswire.RRSIG
		key  dnswire.DNSKEY
	}{
		{"non-zone key", f.set, f.sig, nonZone},
		{"protocol 2", f.set, f.sig, proto},
		{"algorithm mismatch", f.set, otherAlg, f.key},
		{"key tag mismatch", f.set, otherTag, f.key},
		{"signer mismatch", f.set, otherSigner, f.key},
		{"owner outside zone", outside, f.sig, f.key},
		{"labels field", f.set, labels, f.key},
		{"type covered", f.set, otherType, f.key},
		{"short signature", f.set, shortSig, f.key},
	} {
		if _, err := f.verify(tc.set, tc.sig, tc.key, testNow); err == nil {
			t.Errorf("%s: accepted on a memoized-valid triple", tc.name)
		}
	}

	// Malformed keys whose tag and algorithm the RRSIG does name.
	for _, tc := range []struct {
		name string
		alg  dnswire.SecAlgorithm
		pub  []byte
		want error
	}{
		{"short ECDSA key", dnswire.AlgECDSAP256SHA256, make([]byte, 63), ErrBadPublicKey},
		{"short Ed25519 key", dnswire.AlgEd25519, make([]byte, 31), ErrBadPublicKey},
		{"truncated RSA key", dnswire.AlgRSASHA256, []byte{1}, ErrBadPublicKey},
		{"unknown algorithm", dnswire.SecAlgorithm(200), make([]byte, 64), ErrUnsupportedAlg},
	} {
		key := dnswire.DNSKEY{Flags: dnswire.DNSKEYFlagZone, Protocol: 3, Algorithm: tc.alg, PublicKey: tc.pub}
		sig := f.sig
		sig.Algorithm, sig.KeyTag = tc.alg, KeyTag(key)
		if _, err := f.verify(f.set, sig, key, testNow); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}

	if f.requests() != requests || f.entries() != entries {
		t.Errorf("rejected calls reached the memo: requests %d -> %d, entries %d -> %d",
			requests, f.requests(), entries, f.entries())
	}
}

// TestVerifyMemoFlushesAtCap fills the table to its cap and checks the
// next insert flushes it whole and that answers stay correct after.
func TestVerifyMemoFlushesAtCap(t *testing.T) {
	f := newMemoFixture(t, dnswire.AlgEd25519)
	if _, err := f.verify(f.set, f.sig, f.key, testNow); err != nil {
		t.Fatal(err)
	}
	f.memo.mu.Lock()
	for i := 0; len(f.memo.m) < verifyMemoCap; i++ {
		f.memo.m[[32]byte{0xFF, byte(i), byte(i >> 8), byte(i >> 16)}] = ErrBadSignature
	}
	f.memo.mu.Unlock()

	bad := f.sig
	bad.Signature = append([]byte(nil), f.sig.Signature...)
	bad.Signature[0] ^= 0x80
	if hit, err := f.verify(f.set, bad, f.key, testNow); hit || !errors.Is(err, ErrBadSignature) {
		t.Fatalf("insert at the cap: err %v, hit %v", err, hit)
	}
	if n := f.entries(); n != 1 {
		t.Fatalf("%d entries after inserting at the cap of %d, want 1", n, verifyMemoCap)
	}
	// The valid triple was flushed with the rest: it verifies again,
	// correctly, and is an entry once more.
	if hit, err := f.verify(f.set, f.sig, f.key, testNow); err != nil || hit {
		t.Fatalf("flushed triple: err %v, hit %v (want a clean miss)", err, hit)
	}
	if hit, err := f.verify(f.set, f.sig, f.key, testNow); err != nil || !hit {
		t.Fatalf("re-memoized triple: err %v, hit %v", err, hit)
	}
}

// TestVerifyMemoConcurrent hammers one memo from 8 goroutines with a
// valid and a bogus triple; run under -race in ci.sh.
func TestVerifyMemoConcurrent(t *testing.T) {
	f := newMemoFixture(t, dnswire.AlgECDSAP256SHA256)
	bad := f.sig
	bad.Signature = append([]byte(nil), f.sig.Signature...)
	bad.Signature[5] ^= 0x10
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f.memo.VerifyWithRRSIG(f.set, f.sig, f.key, f.zone, testNow); err != nil {
					t.Errorf("valid triple: %v", err)
					return
				}
				if err := f.memo.VerifyWithRRSIG(f.set, bad, f.key, f.zone, testNow); !errors.Is(err, ErrBadSignature) {
					t.Errorf("bogus triple: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := f.requests(), uint64(2*goroutines*rounds); got != want {
		t.Errorf("requests %d, want %d", got, want)
	}
	// Every goroutine may miss each triple once, never more.
	if misses := f.requests() - f.hits(); misses < 2 || misses > 2*goroutines {
		t.Errorf("%d misses, want between 2 and %d", misses, 2*goroutines)
	}
	if n := f.entries(); n != 2 {
		t.Errorf("%d entries, want 2", n)
	}
}

// TestVerifyMemoHitAllocs pins the cost of a hit: nothing beyond
// building the signed data, which every verification has always done.
func TestVerifyMemoHitAllocs(t *testing.T) {
	f := newMemoFixture(t, dnswire.AlgECDSAP256SHA256)
	if _, err := f.verify(f.set, f.sig, f.key, testNow); err != nil {
		t.Fatal(err)
	}
	build := testing.AllocsPerRun(100, func() {
		if _, err := signedData(f.set, f.sig); err != nil {
			t.Fatal(err)
		}
	})
	hit := testing.AllocsPerRun(100, func() {
		if err := f.memo.verify(f.set, f.sig, f.key); err != nil {
			t.Fatal(err)
		}
	})
	if hit > build {
		t.Errorf("a memo hit allocates %.0f, building the signed data alone %.0f", hit, build)
	}
	if f.hits() < 100 {
		t.Fatalf("only %d hits: the measured calls were not hits", f.hits())
	}
}
