package dnssec

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"repro/internal/dnswire"
)

// RRset is a group of records sharing owner, class, and type — the unit
// DNSSEC signs.
type RRset struct {
	Name  dnswire.Name
	Class dnswire.Class
	TTL   uint32
	Datas []dnswire.RData // all of the same Type
}

// NewRRset groups rrs (which must share name/class/type) into an RRset.
func NewRRset(rrs []dnswire.RR) (RRset, error) {
	if len(rrs) == 0 {
		return RRset{}, errors.New("dnssec: empty RRset")
	}
	set := RRset{Name: rrs[0].Name, Class: rrs[0].Class, TTL: rrs[0].TTL}
	t := rrs[0].Type()
	for _, rr := range rrs {
		if rr.Name != set.Name || rr.Class != set.Class || rr.Type() != t {
			return RRset{}, fmt.Errorf("dnssec: mixed RRset (%s/%s vs %s/%s)",
				rr.Name, rr.Type(), set.Name, t)
		}
		if rr.TTL < set.TTL {
			set.TTL = rr.TTL // RFC 2181 §5.2: use the lowest TTL
		}
		set.Datas = append(set.Datas, rr.Data)
	}
	return set, nil
}

// Type returns the RRset's record type.
func (s RRset) Type() dnswire.Type { return s.Datas[0].Type() }

// RRs materializes the set back into resource records.
func (s RRset) RRs() []dnswire.RR {
	out := make([]dnswire.RR, len(s.Datas))
	for i, d := range s.Datas {
		out[i] = dnswire.RR{Name: s.Name, Class: s.Class, TTL: s.TTL, Data: d}
	}
	return out
}

// canonicalOwner returns the owner name used in canonical form: if the
// RRSIG Labels field is smaller than the owner's label count, the name
// was synthesized from a wildcard and the canonical owner is
// "*.<last Labels labels>" (RFC 4035 §5.3.2). The common case — not
// synthesized — counts the labels where they stand.
func canonicalOwner(owner dnswire.Name, rrsigLabels uint8) (dnswire.Name, error) {
	n := owner.CountLabels()
	if int(rrsigLabels) > n {
		return "", fmt.Errorf("dnssec: RRSIG labels %d exceeds owner %s", rrsigLabels, owner)
	}
	if int(rrsigLabels) == n {
		return owner, nil
	}
	suffix := owner
	for ; n > int(rrsigLabels); n-- {
		suffix = suffix.Parent()
	}
	return suffix.Child("*")
}

// appendCanonicalRRset appends the canonical wire form of the RRset
// under its canonical owner: each record as
// owner|type|class|OrigTTL|rdlen|rdata, records sorted by canonical
// RDATA, duplicates counted once (RFC 4034 §6.3).
func appendCanonicalRRset(dst []byte, owner dnswire.Name, set RRset, origTTL uint32) []byte {
	var ownerBuf [dnswire.MaxNameWireLen]byte
	ownerWire := owner.AppendWire(ownerBuf[:0])
	t := set.Type()
	// record appends one record's fixed part and an RDLENGTH to fill in,
	// and returns where the RDATA starts.
	record := func() int {
		dst = append(dst, ownerWire...)
		dst = append(dst, byte(t>>8), byte(t), byte(set.Class>>8), byte(set.Class))
		dst = append(dst, byte(origTTL>>24), byte(origTTL>>16), byte(origTTL>>8), byte(origTTL), 0, 0)
		return len(dst)
	}
	setLength := func(start int) {
		rdlen := len(dst) - start
		dst[start-2], dst[start-1] = byte(rdlen>>8), byte(rdlen)
	}
	if len(set.Datas) == 1 {
		// Nothing to sort or de-duplicate: render in place.
		start := record()
		dst = dnswire.AppendRData(dst, set.Datas[0])
		setLength(start)
		return dst
	}
	rdatas := make([][]byte, len(set.Datas))
	for i, d := range set.Datas {
		rdatas[i] = dnswire.AppendRData(nil, d)
	}
	sort.Slice(rdatas, func(i, j int) bool { return bytes.Compare(rdatas[i], rdatas[j]) < 0 })
	for i, rd := range rdatas {
		if i > 0 && bytes.Equal(rdatas[i-1], rd) {
			continue
		}
		start := record()
		dst = append(dst, rd...)
		setLength(start)
	}
	return dst
}

// signedDataCap holds the signed octets of a typical RRset — an RRSIG
// prefix and one NSEC3, A or DS record under a mid-length owner — so
// building them does not grow a slice from nothing.
const signedDataCap = 256

// signedData returns the octets sig signs over set: the RRSIG RDATA
// minus its Signature field, then the canonical RRset (RFC 4034
// §3.1.8.1).
func signedData(set RRset, sig dnswire.RRSIG) ([]byte, error) {
	owner, err := canonicalOwner(set.Name, sig.Labels)
	if err != nil {
		return nil, err
	}
	buf := sig.AppendSignedPart(make([]byte, 0, signedDataCap))
	return appendCanonicalRRset(buf, owner, set, sig.OrigTTL), nil
}

// ownerLabelCount returns the RRSIG Labels value for an owner: the
// label count excluding a leading wildcard label (RFC 4034 §3.1.3).
func ownerLabelCount(owner dnswire.Name) uint8 {
	labels := owner.Labels()
	n := len(labels)
	if n > 0 && labels[0] == "*" {
		n--
	}
	return uint8(n)
}

// Sign produces an RRSIG over set using key, valid from inception to
// expiration (Unix seconds, serial arithmetic). The signer name is the
// zone apex the key belongs to.
func Sign(set RRset, key *KeyPair, signer dnswire.Name, inception, expiration uint32) (dnswire.RRSIG, error) {
	sig := dnswire.RRSIG{
		TypeCovered: set.Type(),
		Algorithm:   key.Algorithm,
		Labels:      ownerLabelCount(set.Name),
		OrigTTL:     set.TTL,
		Expiration:  expiration,
		Inception:   inception,
		KeyTag:      key.Tag(),
		SignerName:  signer,
	}
	msg, err := signedData(set, sig)
	if err != nil {
		return dnswire.RRSIG{}, err
	}
	digest := sha256.Sum256(msg)
	switch key.Algorithm {
	case dnswire.AlgECDSAP256SHA256:
		priv := key.priv.(*ecdsa.PrivateKey)
		r, s, err := ecdsa.Sign(rand.Reader, priv, digest[:])
		if err != nil {
			return dnswire.RRSIG{}, err
		}
		out := make([]byte, 64)
		r.FillBytes(out[:32])
		s.FillBytes(out[32:])
		sig.Signature = out
	case dnswire.AlgEd25519:
		// Ed25519 signs the message itself, not a digest (RFC 8080 §4).
		sig.Signature = ed25519.Sign(key.priv.(ed25519.PrivateKey), msg)
	case dnswire.AlgRSASHA256:
		priv := key.priv.(*rsa.PrivateKey)
		s, err := rsa.SignPKCS1v15(nil, priv, crypto.SHA256, digest[:])
		if err != nil {
			return dnswire.RRSIG{}, err
		}
		sig.Signature = s
	default:
		return dnswire.RRSIG{}, fmt.Errorf("%w: %s", ErrUnsupportedAlg, key.Algorithm)
	}
	return sig, nil
}

// SignRR is a convenience that signs the RRset formed by rrs and
// returns the RRSIG as a resource record.
func SignRR(rrs []dnswire.RR, key *KeyPair, signer dnswire.Name, inception, expiration uint32) (dnswire.RR, error) {
	set, err := NewRRset(rrs)
	if err != nil {
		return dnswire.RR{}, err
	}
	sig, err := Sign(set, key, signer, inception, expiration)
	if err != nil {
		return dnswire.RR{}, err
	}
	return dnswire.RR{Name: set.Name, Class: set.Class, TTL: set.TTL, Data: sig}, nil
}

// Validity errors, distinguished so the resolver can map them to the
// right observable behaviour (expired signatures are what the paper's
// "expired" and "it-2501-expired" subdomains exercise).
var (
	ErrSigExpired     = errors.New("dnssec: signature expired")
	ErrSigNotYetValid = errors.New("dnssec: signature not yet valid")
	ErrSigMismatch    = errors.New("dnssec: RRSIG does not match RRset")
)

// serialLTE compares 32-bit serial-arithmetic timestamps (RFC 1982):
// a <= b when the signed distance is non-negative.
func serialLTE(a, b uint32) bool { return int32(b-a) >= 0 }

// CheckValidity verifies the RRSIG temporal window at time now
// (Unix seconds).
func CheckValidity(sig dnswire.RRSIG, now uint32) error {
	if !serialLTE(sig.Inception, now) {
		return fmt.Errorf("%w: inception %d, now %d", ErrSigNotYetValid, sig.Inception, now)
	}
	if !serialLTE(now, sig.Expiration) {
		return fmt.Errorf("%w: expiration %d, now %d", ErrSigExpired, sig.Expiration, now)
	}
	return nil
}

// Verify checks sig over set with the given public key. The caller is
// responsible for temporal validity (CheckValidity) and for checking
// that the key is a zone key whose tag and algorithm match the RRSIG —
// VerifyWithRRSIG bundles all of it.
func Verify(set RRset, sig dnswire.RRSIG, key dnswire.DNSKEY) error {
	return (*VerifyMemo)(nil).verify(set, sig, key)
}

// verify is Verify in its two halves: build the signed data and reject
// malformed wire shapes (every call), then check the signature over it
// (through m, when there is one).
func (m *VerifyMemo) verify(set RRset, sig dnswire.RRSIG, key dnswire.DNSKEY) error {
	if sig.TypeCovered != set.Type() {
		return fmt.Errorf("%w: covers %s, set is %s", ErrSigMismatch, sig.TypeCovered, set.Type())
	}
	msg, err := signedData(set, sig)
	if err != nil {
		return err
	}
	if err := checkWireShape(key, sig.Signature); err != nil {
		return err
	}
	return m.check(key.Algorithm, key.PublicKey, sig.Signature, msg)
}

// checkWireShape rejects what no signature check could accept and what
// needs no curve or modular arithmetic to see: an unsupported
// algorithm, a key or signature of the wrong length, broken RSA key
// framing. It runs before the memo is consulted, so none of these ever
// becomes an entry, and checkSignature may rely on the lengths.
func checkWireShape(key dnswire.DNSKEY, signature []byte) error {
	switch key.Algorithm {
	case dnswire.AlgECDSAP256SHA256:
		if len(key.PublicKey) != 64 {
			return fmt.Errorf("%w: ECDSA P-256 key length %d", ErrBadPublicKey, len(key.PublicKey))
		}
		if len(signature) != 64 {
			return fmt.Errorf("%w: ECDSA signature length %d", ErrBadSignature, len(signature))
		}
	case dnswire.AlgEd25519:
		if len(key.PublicKey) != ed25519.PublicKeySize {
			return fmt.Errorf("%w: Ed25519 key length %d", ErrBadPublicKey, len(key.PublicKey))
		}
	case dnswire.AlgRSASHA256:
		_, err := rsaPublicFromWire(key.PublicKey)
		return err
	default:
		return fmt.Errorf("%w: %s", ErrUnsupportedAlg, key.Algorithm)
	}
	return nil
}

// checkSignature is the cryptographic half of Verify: whether signature
// is pub's signature over msg (digest is SHA-256 of msg). It is a pure
// function of its arguments' bytes — the property VerifyMemo rests on —
// and expects inputs that passed checkWireShape.
func checkSignature(alg dnswire.SecAlgorithm, pub, signature, msg []byte, digest [sha256.Size]byte) error {
	switch alg {
	case dnswire.AlgECDSAP256SHA256:
		key, err := ecdsaPublicFromWire(pub)
		if err != nil {
			return err
		}
		r := new(big.Int).SetBytes(signature[:32])
		s := new(big.Int).SetBytes(signature[32:])
		if !ecdsa.Verify(key, digest[:], r, s) {
			return ErrBadSignature
		}
	case dnswire.AlgEd25519:
		// Ed25519 verifies the message itself, not a digest (RFC 8080 §4).
		if !ed25519.Verify(ed25519.PublicKey(pub), msg, signature) {
			return ErrBadSignature
		}
	case dnswire.AlgRSASHA256:
		key, err := rsaPublicFromWire(pub)
		if err != nil {
			return err
		}
		if err := rsa.VerifyPKCS1v15(key, crypto.SHA256, digest[:], signature); err != nil {
			return ErrBadSignature
		}
	}
	return nil
}

// VerifyWithRRSIG performs the complete RFC 4035 §5.3 check of one
// RRSIG against one candidate DNSKEY: structural match (tag, algorithm,
// signer, zone-key flag, labels), temporal validity at now, and the
// cryptographic signature.
func VerifyWithRRSIG(set RRset, sig dnswire.RRSIG, key dnswire.DNSKEY, signer dnswire.Name, now uint32) error {
	return (*VerifyMemo)(nil).VerifyWithRRSIG(set, sig, key, signer, now)
}

// VerifyWithRRSIG is the package-level VerifyWithRRSIG with the
// cryptographic step answered through m; a nil m verifies every time.
// Every structural and temporal check runs on every call — only the
// signature check itself, a pure function of bytes, is remembered.
func (m *VerifyMemo) VerifyWithRRSIG(set RRset, sig dnswire.RRSIG, key dnswire.DNSKEY, signer dnswire.Name, now uint32) error {
	if !key.IsZoneKey() {
		return errors.New("dnssec: DNSKEY is not a zone key")
	}
	if key.Protocol != 3 {
		return errors.New("dnssec: DNSKEY protocol is not 3")
	}
	if sig.Algorithm != key.Algorithm {
		return fmt.Errorf("%w: algorithm", ErrSigMismatch)
	}
	if sig.KeyTag != KeyTag(key) {
		return fmt.Errorf("%w: key tag", ErrSigMismatch)
	}
	if sig.SignerName != signer {
		return fmt.Errorf("%w: signer %s, zone %s", ErrSigMismatch, sig.SignerName, signer)
	}
	if !set.Name.IsSubdomainOf(signer) {
		return fmt.Errorf("%w: owner %s outside zone %s", ErrSigMismatch, set.Name, signer)
	}
	if int(sig.Labels) > set.Name.CountLabels() {
		return fmt.Errorf("%w: labels field", ErrSigMismatch)
	}
	if err := CheckValidity(sig, now); err != nil {
		return err
	}
	return m.verify(set, sig, key)
}

func ecdsaPublicFromWire(w []byte) (*ecdsa.PublicKey, error) {
	if len(w) != 64 {
		return nil, fmt.Errorf("%w: ECDSA P-256 key length %d", ErrBadPublicKey, len(w))
	}
	x := new(big.Int).SetBytes(w[:32])
	y := new(big.Int).SetBytes(w[32:])
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	if !pub.Curve.IsOnCurve(x, y) {
		return nil, fmt.Errorf("%w: point not on curve", ErrBadPublicKey)
	}
	return pub, nil
}

func rsaPublicFromWire(w []byte) (*rsa.PublicKey, error) {
	if len(w) < 3 {
		return nil, fmt.Errorf("%w: RSA key too short", ErrBadPublicKey)
	}
	expLen := int(w[0])
	off := 1
	if expLen == 0 {
		expLen = int(w[1])<<8 | int(w[2])
		off = 3
	}
	if len(w) < off+expLen+1 {
		return nil, fmt.Errorf("%w: RSA exponent overruns key", ErrBadPublicKey)
	}
	exp := new(big.Int).SetBytes(w[off : off+expLen])
	if !exp.IsInt64() || exp.Int64() > 1<<31 || exp.Int64() < 3 {
		return nil, fmt.Errorf("%w: RSA exponent out of range", ErrBadPublicKey)
	}
	mod := new(big.Int).SetBytes(w[off+expLen:])
	return &rsa.PublicKey{N: mod, E: int(exp.Int64())}, nil
}
