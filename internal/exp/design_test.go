package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mnoc/internal/core"
	"mnoc/internal/runner/artifact"
)

// TestNetworkArtifactContinuity pins every registry network's artifact
// key and encoded blob at the radix-16 test options: the kind table's
// designs and the Fig 9 sampled designs. The values were recorded
// before the design-spec registry replaced the per-figure builders, so
// a change here invalidates every cache built since and changes the
// topology names encoded networks carry.
func TestNetworkArtifactContinuity(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind string // "" for a Fig 9 design outside the kind table
		spec core.Spec
		key  string
		blob string // SHA-256 of artifact.EncodeNetwork
	}{
		{"base", core.Base, "f61a5d0eeae3ab72fc62010c9b262f993c4bcc61b515acfe92d8f3c61f187325", "3f56c358342d9da8fb2dc18d6b6bb81afde0213a78256d5736c94ae0b981672b"},
		{"cluster2", core.Cluster2, "7e7876e3201611e45f1f52ee84f30239bbe3908f49101aadc5f817ff6e31235c", "f8121bb82f3bdf58736537c0dd551569e8845c20121fab5db0c2434b5aecd117"},
		{"comm2", core.Comm2, "42b48452e2902f14b00ada6d8ad4dc8569477f216edaf6eb364ff7ed5daae223", "ab6a95be0178e3db95d8d7a460ccf4e73ecd746100a9a344fabe961e8aaf6cf4"},
		{"comm4", core.Comm4, "91a5b65affd7b491116d920ef88b9ba4676fbeb176352c3ad72df5f52f39e301", "29bbea16634d3310bcd611d32d1058fe3247f61f2f903033161b10fda66c2a2b"},
		{"dist2", core.Dist2, "1a1d1d05acaf1f029479e9a6529996f37546a7983d445928363892e9a7087fd8", "dcc4838301225b65c462f96e41b1650e0b772cd06031ba953739451844bab494"},
		{"dist4", core.Dist4, "9007db8fffb961d0c1534c980b8a45376b3e57f62714a82702f5568f7cd18dcd", "18dc01a1e2337e889195156d95b823c3ec1f4616cc09c33d84d4f9b8ab4b7a56"},
		{"", core.Spec{Family: core.Distance, Modes: 2, Weighting: core.S4}, "706f51654f717383586ffd0b1cc3dfbbe4dd5eea7cbc5aafaecb94dc11479ad6", "3b7c336f2cfaf0fe5a16dd3aa8866576bfa3af22a2efd5cfe01ba83b35aafd30"},
		{"", core.Spec{Family: core.CommAware, Modes: 2, Weighting: core.S4}, "0d50519d9ce24699d52e812005200553752b7b87a667f5843a3455d0aa58c4e5", "fe22b600f8039e4a7089910892d29c7e8d24cf547c482479deef0f2fde994049"},
		{"", core.Spec{Family: core.Distance, Modes: 2, Weighting: core.S12}, "ae5096ae8309c0a63db1f337d23c63df06b731ab681e63df0fdd2dc0b74786a2", "9e676161690d10a5fd921fe1e0642be1bf6f2a124cd87e9e88e89bbac5df21dd"},
		{"", core.Spec{Family: core.Distance, Modes: 4, Weighting: core.S4}, "a589af208ab2d3fc71c5eaf517749ab3041a70db65b4f4266dc08f38599ec348", "73dd8a707c3393569be1a77938684f3a6f208963c47d38e1bb52f00a6aca2b37"},
		{"", core.Spec{Family: core.CommAware, Modes: 4, Weighting: core.S4}, "d9d9bb5e56b98aea0329c66b4902cd5ee61b4380561ed727c564ed70f1a9a857", "61669747d400475a0a5696636c68011fcffc21c8a97fcf23372d2c6cffc997a1"},
		{"", core.Spec{Family: core.Distance, Modes: 4, Weighting: core.S12}, "62b36ab41dd224d5634448a3eb517b2eacbbb88fa5066fb251da117996bd3f30", "8e571d3fd0d50c08f407a782a3641ffb19f75f9823df74227d8ef20c409d2f59"},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.kind] = true
		name := tc.spec.Name()
		key := c.key(artifact.KindNetwork, artifact.VersionNetwork).Str("design", name).Sum()
		if string(key) != tc.key {
			t.Errorf("%s: artifact key %s, want %s", name, key, tc.key)
		}
		net, err := c.specNetwork(bg, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if tc.kind != "" {
			byKind, err := c.DesignNetwork(bg, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			if byKind != net {
				t.Errorf("kind %s does not resolve to the %s network", tc.kind, name)
			}
		}
		blob, err := artifact.EncodeNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.blob {
			t.Errorf("%s: network blob SHA-256 %s, want %s", name, got, tc.blob)
		}
		if tc.spec == core.Base {
			continue // the base network is built with the context, never stored
		}
		stored, ok, err := c.Store().Get(key)
		if err != nil || !ok || string(stored) != string(blob) {
			t.Errorf("%s: store holds a different blob under its key (found %v, err %v)", name, ok, err)
		}
	}
	for _, k := range DesignKinds() {
		if !covered[k] {
			t.Errorf("kind %s has no recorded artifact", k)
		}
	}
	if got := c.Solves().Networks; got != uint64(len(cases)-1) {
		t.Errorf("%d network solves, want %d", got, len(cases)-1)
	}
}
