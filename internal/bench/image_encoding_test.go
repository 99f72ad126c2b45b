package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/compile"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// TestImageEncodingPinned pins the binary encoding of every kernel's
// initial memory image and of its memory at the halt, by SHA-256. The
// fabric's program-bundle hashes and persisted bundles depend on the
// initial encoding; the final one covers the pages stores create. A change
// to the memory's layout must leave both byte-identical.
func TestImageEncodingPinned(t *testing.T) {
	want := map[string][2]string{
		"gzip":   {"800b2911dd0e66b528be46d66668617def80786e04123560147288083b75af5a", "fdc3bb44f60d58fc549eb5a8aa0c3bc07a12062d20b541b5c9ed4ddd5d450b0e"},
		"vpr":    {"ca46283bcfea76e44fcbaf8732783ac719012ec11fc1bdcbc003262b1111a07c", "4f443ae99e15b66d5c41271eab831763b8d561fe826f0f1f0a8ebe4c8d6defd0"},
		"mcf":    {"55ff92f0d7e971cb8eb4a9e85660a05a8bbc5e1467ca426b7932609e1d0839a0", "a2aed8ceaaba88a185918f73508f232f6497d459508a2cea8fb754efffc22d17"},
		"crafty": {"2888b55fbea7ffaaed87d792c54a62e45b5f3b7c56891a5d72932903e7977fb2", "9721f80cebdadf0e7a08a22e61560865d3551bb8bc5d334d64ac2092c55d2cfe"},
		"parser": {"f03580c0b5af63f0f8d0f863ae48ad4a7df4a69bbfb7f0aad0e765f652694034", "f390dcf7e90d523ce3f6697df7829cb5ae52360feb5d640a6546079afc6d2037"},
		"gap":    {"2cebdd79df9a1c26ba8e9f1e2631daf08c2b9b1eee901e168c4045f3e723c11e", "137c27820cf0a1fafa8794474a81bb8ad24b85d59c0981f7ae4d2e011f276d90"},
		"bzip2":  {"361d19aab9c30489cc2caa63fd1d7ae3765ac7eb3975f040c3275a81d3395bfb", "253968d52b86ecada53aae159efa574b7212f38c9ef69c13c09a728ad0d69d38"},
		"twolf":  {"cea7fa91650af21327ef4190e83d7bc2ee15d353549a3e0ecbafae9953ec5003", "fc5f13bdca36e0c11029833f4a9af042fa8822e394610ae7e71e4b33ceb9a456"},
		"art":    {"c7c84187a448dd8cb963ca46839daa6333912ce7658454b585b15fc60f9d89bc", "0ecceeabe7c5f4f2fd149e1c7946efa1878da88fc749d3b70d4503644ac3c0eb"},
		"equake": {"215ff103ba13db2f7a4eeacbe0f1dc4f079fc7acc8b8501ede654dece38c8c66", "af45e2a6a607447f7aeb4a8c78b2f15b0bd1a86a019baf0f54cbc5aadeb7f0b9"},
		"ammp":   {"f20a26f433f75e671a24f30213dc3d94c16370accbda6fcd8ff4bf0780b95f5a", "a34f050743cfdddbdea9ff665f36106dc5a3dc1aa6d2495fe1f7f24ab3fd829b"},
		"mesa":   {"10eefe95ee2b4ebfdd9f327f3b9a289ed90a1e16f51659c27f325510b00eef5c", "c7d70456673b01e1fb63de39a23d98eb566cde30c8c17a8af39ed8898d28b9c4"},
	}
	sum := func(b []byte, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, w := range workload.All() {
		p, image, err := workload.Program(w, 1, compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := arch.Run(p, image.Clone(), sim.TraceLimit)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]string{sum(image.MarshalBinary()), sum(res.State.Mem.MarshalBinary())}
		if got != want[w.Name] {
			t.Errorf("%s: image encoding hashes %v, want %v", w.Name, got, want[w.Name])
		}
	}
}
