package core

import (
	"sort"

	"aft/internal/idgen"
)

// versionIndex maps each user key to the IDs of transactions that wrote a
// committed version of it, kept in ascending ID order. It backs candidate
// selection in Algorithm 1 and the supersedence check in Algorithm 2.
type versionIndex map[string][]idgen.ID

// insert adds id to key's version list, preserving order; duplicates are
// ignored.
func (vi versionIndex) insert(key string, id idgen.ID) {
	versions := vi[key]
	i := sort.Search(len(versions), func(i int) bool { return !versions[i].Less(id) })
	if i < len(versions) && versions[i].Equal(id) {
		return
	}
	versions = append(versions, idgen.Null)
	copy(versions[i+1:], versions[i:])
	versions[i] = id
	vi[key] = versions
}

// remove deletes id from key's version list if present.
func (vi versionIndex) remove(key string, id idgen.ID) {
	versions := vi[key]
	i := sort.Search(len(versions), func(i int) bool { return !versions[i].Less(id) })
	if i >= len(versions) || !versions[i].Equal(id) {
		return
	}
	versions = append(versions[:i], versions[i+1:]...)
	if len(versions) == 0 {
		delete(vi, key)
		return
	}
	vi[key] = versions
}

// latest returns the newest version of key, if any.
func (vi versionIndex) latest(key string) (idgen.ID, bool) {
	versions := vi[key]
	if len(versions) == 0 {
		return idgen.Null, false
	}
	return versions[len(versions)-1], true
}

// atLeast returns key's versions with ID >= lower, in ascending order. The
// result is a copy: a slice aliasing the index would be a latent data race
// the moment a caller held it past the metadata lock (insert shifts the
// shared backing array in place).
func (vi versionIndex) atLeast(key string, lower idgen.ID) []idgen.ID {
	versions := vi[key]
	i := sort.Search(len(versions), func(i int) bool { return !versions[i].Less(lower) })
	if i == len(versions) {
		return nil
	}
	return append([]idgen.ID(nil), versions[i:]...)
}
