package shard

// snapshot.go restarts a federation group from disk: the per-shard
// snapshot files cmd/kbgen writes (kb.WriteSnapshot of each partition
// shard) are self-contained serving units — each embeds the whole KB's
// planner statistics — so GroupFromSnapshots can memory-map them and
// stand the group back up without re-parsing, re-partitioning, or a
// planner-stats sidecar.

import (
	"fmt"
	"strings"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
)

// PartitionIndex reports whether a KB name is a kb.Partition shard
// name ("<base>/shard-<i>-of-<n>"), returning the shard's index and
// the partition size. Loaders use it to refuse serving a lone shard
// file as if it were a whole KB.
func PartitionIndex(name string) (i, n int, ok bool) {
	_, i, n, ok = parseShardName(name)
	return i, n, ok
}

// parseShardName splits the "<base>/shard-<i>-of-<n>" name kb.Partition
// gives its shards.
func parseShardName(name string) (base string, i, n int, ok bool) {
	cut := strings.LastIndex(name, "/shard-")
	if cut < 0 {
		return "", 0, 0, false
	}
	var rest string
	base, rest = name[:cut], name[cut+len("/shard-"):]
	if _, err := fmt.Sscanf(rest, "%d-of-%d", &i, &n); err != nil {
		return "", 0, 0, false
	}
	return base, i, n, i >= 0 && n > 0 && i < n
}

// GroupFromSnapshots memory-maps one snapshot file per shard
// (kb.OpenSnapshot) and federates them behind a Group. The files must
// be a complete shard set written from one kb.Partition — kbgen's
// `-snapshot -shards n` output — in any order: each shard records its
// partition position in its KB name ("<base>/shard-<i>-of-<n>"), and
// the group is assembled in that recorded order, so routing and merge
// determinism hold no matter how the caller globbed the paths. seed
// must be the RAND() seed the original serving endpoints used for
// byte-identical reassembled ORDER BY RAND() streams.
//
// A single whole-KB snapshot (no shard suffix in its name) is also
// accepted and served as a one-shard group.
func GroupFromSnapshots(seed int64, paths []string, opts ...Option) (*Group, error) {
	return GroupFromSnapshotsRestricted(seed, endpoint.Quota{}, paths, opts...)
}

// GroupFromSnapshotsRestricted is GroupFromSnapshots under an access
// quota, with PartitionedRestricted's semantics: the row cap applies
// once at the merge point, the query budget per shard.
func GroupFromSnapshotsRestricted(seed int64, q endpoint.Quota, paths []string, opts ...Option) (*Group, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("shard: no snapshot paths given")
	}
	kbs := make([]*kb.KB, 0, len(paths))
	fail := func(err error) (*Group, error) {
		for _, k := range kbs {
			k.Close()
		}
		return nil, err
	}
	for _, p := range paths {
		k, err := kb.OpenSnapshot(p)
		if err != nil {
			return fail(err)
		}
		kbs = append(kbs, k)
	}

	name := kbs[0].Name()
	ordered := kbs
	if base, _, n, ok := parseShardName(kbs[0].Name()); ok || len(kbs) > 1 {
		if !ok {
			return fail(fmt.Errorf("shard: %s holds KB %q, which is not a partition shard", paths[0], kbs[0].Name()))
		}
		if n != len(kbs) {
			return fail(fmt.Errorf("shard: %s is shard %q but %d file(s) were given", paths[0], kbs[0].Name(), len(kbs)))
		}
		name = base
		ordered = make([]*kb.KB, n)
		for j, k := range kbs {
			b, i, m, ok := parseShardName(k.Name())
			if !ok || b != base || m != n {
				return fail(fmt.Errorf("shard: %s holds KB %q, which does not belong to the %q %d-shard set", paths[j], k.Name(), base, n))
			}
			if ordered[i] != nil {
				return fail(fmt.Errorf("shard: duplicate shard %d of %q (%s)", i, base, paths[j]))
			}
			ordered[i] = k
		}
	}

	shardQuota := q
	shardQuota.MaxRows = 0
	eps := make([]endpoint.Endpoint, len(ordered))
	for i, k := range ordered {
		eps[i] = endpoint.NewLocalRestricted(k, seed, shardQuota)
	}
	g, err := NewGroup(name, seed, eps, append([]Option{RowCap(q.MaxRows)}, opts...)...)
	if err != nil {
		return fail(err)
	}
	return g, nil
}
