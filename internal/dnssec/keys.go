// Package dnssec implements the DNSSEC signing and validation
// primitives of RFCs 4033–4035: key pairs for algorithms 8 (RSA/SHA-256),
// 13 (ECDSA P-256/SHA-256), and 15 (Ed25519), the canonical RRset form,
// RRSIG generation and verification, key tags, and DS records.
//
// The zone signer and the validating resolver are both built on this
// package; the NSEC3 study depends on it because only domains that
// return DNSKEY records are considered DNSSEC-enabled in the paper's
// methodology (§4.1).
package dnssec

import (
	"bytes"
	"crypto"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/dnswire"
)

// KeyPair is a DNSSEC signing key: the private key plus the DNSKEY
// record fields derived from its public half.
type KeyPair struct {
	Algorithm dnswire.SecAlgorithm
	Flags     uint16 // DNSKEYFlagZone, optionally |DNSKEYFlagSEP for a KSK
	priv      crypto.Signer
	publicKey []byte // DNSKEY Public Key field, wire format
	// nonce is where an ECDSA signature's per-signature secret comes
	// from: crypto/rand for a generated key (a hedged signature), nil
	// for a derived one (RFC 6979: a function of key and digest).
	nonce io.Reader
}

// Errors from key handling.
var (
	ErrUnsupportedAlg = errors.New("dnssec: unsupported algorithm")
	ErrBadPublicKey   = errors.New("dnssec: malformed public key")
	ErrBadSignature   = errors.New("dnssec: signature verification failed")
)

// GenerateKey creates a fresh key pair for alg from crypto/rand. ksk
// sets the SEP flag (the conventional KSK marker). Its ECDSA signatures
// are hedged: each draws a fresh nonce from crypto/rand.
func GenerateKey(alg dnswire.SecAlgorithm, ksk bool) (*KeyPair, error) {
	kp := &KeyPair{Algorithm: alg, Flags: keyFlags(ksk), nonce: rand.Reader}
	switch alg {
	case dnswire.AlgECDSAP256SHA256:
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			return nil, err
		}
		kp.priv = priv
		kp.publicKey = ecdsaPublicWire(&priv.PublicKey)
	case dnswire.AlgEd25519:
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		kp.priv = priv
		kp.publicKey = append([]byte(nil), pub...)
	case dnswire.AlgRSASHA256:
		priv, err := rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			return nil, err
		}
		kp.priv = priv
		kp.publicKey = rsaPublicWire(&priv.PublicKey)
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedAlg, alg)
	}
	return kp, nil
}

// DeriveKey returns the key pair for alg that is a function of secret,
// apex and role (ksk), made from HMAC-SHA-256 keyed by secret. For
// ECDSA P-256 the private scalar is the MAC over apex's wire form, the
// role's DNSKEY flags and a four-octet counter, the first output in
// [1, n−1] as the counter counts up from zero; its signatures are
// deterministic by RFC 6979. For Ed25519 the private key's seed is the
// MAC over apex's wire form, the flags and the algorithm octet: any 32
// octets are a seed, and the algorithm octet keeps it apart from the
// P-256 scalar of the same inputs. Ed25519 signatures are
// deterministic by construction (RFC 8032). Either way the same inputs
// sign the same RRset to the same octets. This is for simulated worlds
// that must be reproducible from a seed; a key that guards anything
// real comes from GenerateKey.
func DeriveKey(alg dnswire.SecAlgorithm, ksk bool, secret []byte, apex dnswire.Name) (*KeyPair, error) {
	flags := keyFlags(ksk)
	msg := binary.BigEndian.AppendUint16(apex.AppendWire(nil), flags)
	mac := hmac.New(sha256.New, secret)
	switch alg {
	case dnswire.AlgECDSAP256SHA256:
	case dnswire.AlgEd25519:
		_, _ = mac.Write(append(msg, byte(alg))) // hash.Hash.Write never fails
		priv := ed25519.NewKeyFromSeed(mac.Sum(nil))
		pub := append([]byte(nil), priv.Public().(ed25519.PublicKey)...)
		return &KeyPair{Algorithm: alg, Flags: flags, priv: priv, publicKey: pub}, nil
	default:
		return nil, fmt.Errorf("%w: derived %s key", ErrUnsupportedAlg, alg)
	}
	n := elliptic.P256().Params().N
	for counter := uint32(0); ; counter++ {
		mac.Reset()
		_, _ = mac.Write(binary.BigEndian.AppendUint32(msg, counter)) // hash.Hash.Write never fails
		scalar := mac.Sum(nil)
		d := new(big.Int).SetBytes(scalar)
		if d.Sign() == 0 || d.Cmp(n) >= 0 {
			continue
		}
		ek, err := ecdh.P256().NewPrivateKey(scalar)
		if err != nil {
			return nil, err
		}
		// The uncompressed point 0x04 || x || y is the DNSKEY's x || y.
		point := ek.PublicKey().Bytes()[1:]
		priv := &ecdsa.PrivateKey{
			PublicKey: ecdsa.PublicKey{Curve: elliptic.P256(),
				X: new(big.Int).SetBytes(point[:32]), Y: new(big.Int).SetBytes(point[32:])},
			D: d,
		}
		return &KeyPair{Algorithm: alg, Flags: flags, priv: priv, publicKey: point}, nil
	}
}

// keyFlags is a zone key's DNSKEY flags, with the SEP bit for a KSK.
func keyFlags(ksk bool) uint16 {
	if ksk {
		return dnswire.DNSKEYFlagZone | dnswire.DNSKEYFlagSEP
	}
	return dnswire.DNSKEYFlagZone
}

// ecdsaPublicWire encodes Q = x || y, each coordinate left-padded to 32
// octets (RFC 6605 §4).
func ecdsaPublicWire(pub *ecdsa.PublicKey) []byte {
	out := make([]byte, 64)
	pub.X.FillBytes(out[:32])
	pub.Y.FillBytes(out[32:])
	return out
}

// rsaPublicWire encodes exponent-length, exponent, modulus (RFC 3110 §2).
func rsaPublicWire(pub *rsa.PublicKey) []byte {
	exp := big.NewInt(int64(pub.E)).Bytes()
	var out []byte
	if len(exp) <= 255 {
		out = append(out, byte(len(exp)))
	} else {
		out = append(out, 0)
		out = binary.BigEndian.AppendUint16(out, uint16(len(exp)))
	}
	out = append(out, exp...)
	return append(out, pub.N.Bytes()...)
}

// DNSKEY returns the public DNSKEY RDATA for the key.
func (k *KeyPair) DNSKEY() dnswire.DNSKEY {
	return dnswire.DNSKEY{
		Flags:     k.Flags,
		Protocol:  3,
		Algorithm: k.Algorithm,
		PublicKey: append([]byte(nil), k.publicKey...),
	}
}

// DNSKEYRR materializes the DNSKEY resource record at owner with ttl.
func (k *KeyPair) DNSKEYRR(owner dnswire.Name, ttl uint32) dnswire.RR {
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: ttl, Data: k.DNSKEY()}
}

// KeyTag computes the RFC 4034 Appendix B key tag over the DNSKEY RDATA.
func KeyTag(key dnswire.DNSKEY) uint16 {
	return keyTag(key.Flags, key.Protocol, key.Algorithm, key.PublicKey)
}

// keyTag is the Appendix B checksum of the RDATA flags | protocol |
// algorithm | public key, summed field by field where the octets would
// stand: the four fixed octets put flags and protocol in high bytes and
// the algorithm in a low one, so the public key's first octet is a high
// byte again.
func keyTag(flags uint16, protocol uint8, alg dnswire.SecAlgorithm, pub []byte) uint16 {
	acc := uint32(flags) + uint32(protocol)<<8 + uint32(alg)
	for i, b := range pub {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += acc >> 16 & 0xFFFF
	return uint16(acc)
}

// Tag returns the key tag of this key pair's DNSKEY.
func (k *KeyPair) Tag() uint16 { return keyTag(k.Flags, 3, k.Algorithm, k.publicKey) }

// NewDS builds the DS record data for a child's DNSKEY at owner,
// digesting owner-wire || DNSKEY-RDATA (RFC 4034 §5.1.4).
func NewDS(owner dnswire.Name, key dnswire.DNSKEY, dt dnswire.DigestType) (dnswire.DS, error) {
	var sum [sha256.Size]byte
	digest, err := dsDigest(&sum, owner, key, dt)
	if err != nil {
		return dnswire.DS{}, err
	}
	return dnswire.DS{
		KeyTag:     KeyTag(key),
		Algorithm:  key.Algorithm,
		DigestType: dt,
		Digest:     bytes.Clone(digest),
	}, nil
}

// dsDigest writes the digest of type dt over owner-wire ||
// DNSKEY-RDATA into sum and returns the part of sum it fills. The
// digest input is built on the stack for any ECDSA P-256 or Ed25519
// key.
func dsDigest(sum *[sha256.Size]byte, owner dnswire.Name, key dnswire.DNSKEY, dt dnswire.DigestType) ([]byte, error) {
	var buf [dnswire.MaxNameWireLen + 4 + 64]byte
	b := owner.AppendWire(buf[:0])
	b = binary.BigEndian.AppendUint16(b, key.Flags)
	b = append(b, key.Protocol, byte(key.Algorithm))
	b = append(b, key.PublicKey...)
	switch dt {
	case dnswire.DigestSHA1:
		d := sha1.Sum(b)
		return sum[:copy(sum[:], d[:])], nil
	case dnswire.DigestSHA256:
		*sum = sha256.Sum256(b)
		return sum[:], nil
	default:
		return nil, fmt.Errorf("%w: digest type %d", ErrUnsupportedAlg, dt)
	}
}

// The ways a DS can fail to authenticate a DNSKEY. A validator meets
// the first on every DNSKEY its DS set does not name, so none of them
// carries the pair.
var (
	errDSKey          = errors.New("dnssec: DS does not reference the key")
	errDSDigestLength = errors.New("dnssec: DS digest length mismatch")
	errDSDigest       = errors.New("dnssec: DS digest mismatch")
)

// VerifyDS checks that ds authenticates the DNSKEY at owner. It
// allocates nothing unless the digest type is unsupported.
func VerifyDS(owner dnswire.Name, key dnswire.DNSKEY, ds dnswire.DS) error {
	if ds.KeyTag != KeyTag(key) || ds.Algorithm != key.Algorithm {
		return errDSKey
	}
	var sum [sha256.Size]byte
	want, err := dsDigest(&sum, owner, key, ds.DigestType)
	if err != nil {
		return err
	}
	if len(want) != len(ds.Digest) {
		return errDSDigestLength
	}
	if !bytes.Equal(want, ds.Digest) {
		return errDSDigest
	}
	return nil
}
