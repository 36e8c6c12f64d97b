package lavastore

import (
	"errors"
	"time"
)

// ErrNoTTL is returned by TTL for keys that exist without an expiry.
var ErrNoTTL = errors.New("lavastore: key has no TTL")

// TTL returns the remaining time-to-live of key. It returns ErrNoTTL
// for keys without an expiry and ErrNotFound for absent or expired
// keys. The lookup charges the same I/O as a Get.
func (db *DB) TTL(key []byte) (time.Duration, error) {
	rec, _, err := db.lookup(key)
	if err != nil {
		return 0, err
	}
	now := db.opt.Clock.Now()
	r, err := decodeRecord(rec)
	if err != nil {
		return 0, err
	}
	if r.Kind == kindDelete || r.expired(now.Unix()) {
		return 0, ErrNotFound
	}
	if r.ExpireAt == 0 {
		return 0, ErrNoTTL
	}
	return time.Unix(r.ExpireAt, 0).Sub(now), nil
}

// Expire sets (or replaces) the TTL on an existing key, rewriting its
// current value with the new expiry. It returns ErrNotFound when the
// key is absent.
func (db *DB) Expire(key []byte, ttl time.Duration) error {
	res, err := db.Get(key)
	if err != nil {
		return err
	}
	return db.Put(key, res.Value, ttl)
}

// Persist removes the TTL from an existing key, keeping its value.
func (db *DB) Persist(key []byte) error {
	res, err := db.Get(key)
	if err != nil {
		return err
	}
	return db.Put(key, res.Value, 0)
}
