package oracle

import (
	"testing"

	"spamer"
	"spamer/internal/oracle/gen"
	"spamer/internal/sim"
)

// TestGoldenGeneratedDAGTraces pins the dispatch traces of the
// generated DAG cases gen.New(seed).DAGCase() for seeds 0-199. Each case
// runs under all four algorithms, with its generated EvictEvery and
// with EvictEvery forced to 900 and to 2000, so between them the runs
// cover shared edges, WorkCounter drains, 0delay and adapt, and
// eviction on a DAG, which the scenario goldens do not. One golden per
// seed folds every run's trace hash, ticks and popped count, so a
// failure names the seed. The values were recorded with every DAG
// replica running as a blocking coroutine process.
//
// Seed 57 at 900 is left out: it is the eviction deadlock still open
// in the model (under vl the run panics with "device-write replay
// bound exceeded"), and a golden must not pin a failing run.
func TestGoldenGeneratedDAGTraces(t *testing.T) {
	for seed, want := range goldenGeneratedDAGs {
		cs := gen.New(uint64(seed)).DAGCase()
		w, err := cs.Workload()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h := sim.TraceOffset
		for _, evict := range []uint64{cs.EvictEvery, 900, 2000} {
			if seed == 57 && evict == 900 {
				continue
			}
			for _, alg := range spamer.Configs() {
				cfg := cs.Spec.SystemConfig(alg)
				cfg.EvictEvery = evict
				r := RunChecked(w, cfg, cs.Spec.Scale, true)
				for _, v := range r.Violations {
					t.Errorf("seed %d %s evict %d: %s: %s", seed, alg, evict, v.Invariant, v.Detail)
				}
				h = sim.TraceFold(h, r.TraceHash, r.Result.Ticks)
				h = sim.TraceFold(h, r.Result.Popped, 0)
			}
		}
		if h != want {
			t.Errorf("seed %d: fold %#x, golden %#x", seed, h, want)
		}
	}
}

// goldenGeneratedDAGs[seed] is the fold of seed's runs.
var goldenGeneratedDAGs = [200]uint64{
	0:   0x9e75e93ba4118634,
	1:   0xb99a017d4f6876e9,
	2:   0xeb111a2c550cce46,
	3:   0x75ac6c3935e71e12,
	4:   0xbe7cbaa06194f845,
	5:   0xae37c2b638f8ef08,
	6:   0x76072396a3e55936,
	7:   0x797de9198ae709f6,
	8:   0x440331ecaa79f0de,
	9:   0xf68d5bc2dd22ebee,
	10:  0x56cf4e07e3b9bdc6,
	11:  0x5719f9ac9021adb7,
	12:  0xb3c578b9d2ebfdcd,
	13:  0xd5a0dca7b8b3d6b4,
	14:  0xcd31174b24e822b0,
	15:  0xfeff3b1152da0178,
	16:  0x7253f861a1d4c719,
	17:  0x42aa4c6d25108c94,
	18:  0x30b57c4259e35723,
	19:  0x62aca7044bde2232,
	20:  0x2458971a72895431,
	21:  0x5c1efd9f90c49d47,
	22:  0x95d468e091814e12,
	23:  0x6d1a6267e7738a9d,
	24:  0x8b4018722e369cc2,
	25:  0x336138bad4304b43,
	26:  0x545b89487b72bcbf,
	27:  0x3bf7c3b91106d326,
	28:  0xe8f8975611346987,
	29:  0x52f5b1aaa0271b62,
	30:  0xc80b2e847b9a9c56,
	31:  0x66b0dee10c487363,
	32:  0x28f461321a72d06a,
	33:  0x9c08282c230f0e4e,
	34:  0x6bf76800c4329238,
	35:  0x5f869125095061f6,
	36:  0x5cc532e626a7bf8b,
	37:  0xc9d3aa6518b46276,
	38:  0x250a6179b8d3ca80,
	39:  0x73b26f2666125fa6,
	40:  0x23dbbd99773b95f3,
	41:  0x913974aea4a2259,
	42:  0xace112000f87eea0,
	43:  0x92cd0d0b62704043,
	44:  0x20c7a48a496f383f,
	45:  0xad30af2c8bdcc72,
	46:  0x4fc167f19b568c7f,
	47:  0x4806802316eeffed,
	48:  0xa20daf215d38c995,
	49:  0x7194284565756508,
	50:  0x4ee5c028c871505,
	51:  0x43c1295bf4b7f6ac,
	52:  0x933f91f43958e6cd,
	53:  0x28aed182bc3b7e20,
	54:  0x2fa8a5236caa59d1,
	55:  0x8db2e390a703d84c,
	56:  0x58f2ae1fbb77ad07,
	57:  0x6bed9ea6344aa035,
	58:  0xa38ec71f8f40ec39,
	59:  0x840291ade6715213,
	60:  0x920f4432d2cb0257,
	61:  0x30a1ed179f1274cc,
	62:  0xc607693c0ea284f8,
	63:  0xc9479c968b6b98f4,
	64:  0x64c781f8b249973,
	65:  0x11527050b819c62b,
	66:  0x9a4ec12069631bf8,
	67:  0xaaec0d8940b2f688,
	68:  0x56b934872f246ec5,
	69:  0x87fcf9905b2e073f,
	70:  0xa43ef5fdc822ca20,
	71:  0xef2bc3fec75f9bba,
	72:  0x50be6a0f30cd60b7,
	73:  0x19fd66a78235dc7c,
	74:  0x1bce01b36e09d98d,
	75:  0x31b175b13fa7c665,
	76:  0x88e1a53d9e204306,
	77:  0xa77e6f5897b8c8d3,
	78:  0xe6089d210a9e7340,
	79:  0x277b9a6585ce00b8,
	80:  0x35cb815c9b654a04,
	81:  0x3d00a06c166e5a36,
	82:  0xdf2d4dd792fdc621,
	83:  0x6b3f15625d632981,
	84:  0x76368807faeab358,
	85:  0x87d7842c3b32eb59,
	86:  0x75afa58817fcdcf3,
	87:  0x70978271761766d3,
	88:  0x446cbd4708fdc587,
	89:  0x5e1efa8a713b1e59,
	90:  0x2c19027311024baa,
	91:  0x535456c8cb7cd674,
	92:  0x5027c4874b441320,
	93:  0x7e9107aa19e0e9f0,
	94:  0x3256f0c3b6a2f7ce,
	95:  0xbd1b76b766751cd7,
	96:  0xdd63b7376de4eaca,
	97:  0xbad9655b4f88b256,
	98:  0xfcbed8c28030be54,
	99:  0x410829a7f2e9218c,
	100: 0x775a0e798339b81f,
	101: 0x60080debb875256e,
	102: 0xc7218e2fc670c74,
	103: 0xc33176e7d9dd82c6,
	104: 0x9137a10a6e589055,
	105: 0xb83234d7b7f6bb3e,
	106: 0xf8d30b7fc4496d61,
	107: 0x372fa59f5d4dadbc,
	108: 0x519a0cd28c3e62a2,
	109: 0x7cc35d5e3b7af751,
	110: 0xf7bc1813b0ec2d6e,
	111: 0x61cde3ab037562f,
	112: 0xb0e9d5edfab93e26,
	113: 0x24c902a6ee6b84d7,
	114: 0x369fe76fb034d000,
	115: 0xe02720d4eb891515,
	116: 0x2803219a57fa94dc,
	117: 0xd075fd300864b68e,
	118: 0x2a267f75c6f583ef,
	119: 0xdf6b013eb9bc827b,
	120: 0x9785c1a31196cc67,
	121: 0x5519276545c0a3bf,
	122: 0x1d93d0744c16b15f,
	123: 0xbec08522ca38818b,
	124: 0xab19dc64c3c4c32c,
	125: 0x99641b08699d5e24,
	126: 0xff3790cc7b4e9576,
	127: 0x16c565f99bce9019,
	128: 0x449b2c3234b11614,
	129: 0xdd86a80ab04840e0,
	130: 0xbd4582406bf21c1d,
	131: 0x6e3808fec14ba224,
	132: 0x321af063fc905df8,
	133: 0xedad3fdefc1069fa,
	134: 0x50ce639a7fb3d5cd,
	135: 0xb866a6c91797650f,
	136: 0xb4fca769008bfc08,
	137: 0x9db8a47a7720c307,
	138: 0xee15dc05769fe41c,
	139: 0xc2f7942730e2263a,
	140: 0x2899a8f8e2793484,
	141: 0xa7a293301ef3ab82,
	142: 0x4048bdea1c70e80d,
	143: 0xda7b5ed0f2c02d32,
	144: 0x554c476c15426df9,
	145: 0xbb8680460dab6b70,
	146: 0x673a1685d4540895,
	147: 0x2f88cf5cb12eaf4c,
	148: 0x318c3b01edd1df60,
	149: 0xea96a5f8c7a5741f,
	150: 0xbb78b6a5e20bf160,
	151: 0x1bf54a30704d3a09,
	152: 0x9cc4136b98391c13,
	153: 0x1234aa7f27c6b0bb,
	154: 0xbd74c6af56ba05de,
	155: 0x19a691ae60f9b23,
	156: 0x379b7323314d7e0b,
	157: 0xdd64946b5c6791b3,
	158: 0xb76ac52581487bf9,
	159: 0x54acba97182f7842,
	160: 0x9bd1df845c730527,
	161: 0xcca6b4f68b88ec2d,
	162: 0x6e9a1ebb0e54679,
	163: 0xe3a7cdf1acae6a33,
	164: 0x8a20303a4c5ce9c6,
	165: 0x39d5adc821fa5e9c,
	166: 0xaf9413db252d514d,
	167: 0xae0ac56c7565912,
	168: 0x414d7679cdd9cb2a,
	169: 0xb213fa0698bb06c5,
	170: 0xd3ddc814bc111e8c,
	171: 0xa52367c77e20a795,
	172: 0x195c29663e0edb1b,
	173: 0x546b070781460cf9,
	174: 0x1c8b1bb484ca7c42,
	175: 0x33c4fbe20fc4cdb5,
	176: 0xd2ecaf53f56c5835,
	177: 0x138c1d53a4ebcb91,
	178: 0xd3980d3285f2b7c1,
	179: 0x4bf10433c2c492aa,
	180: 0x62d695d58c4a9463,
	181: 0xf94021457ba1587a,
	182: 0x2e079c58571e172d,
	183: 0x939cc600808632b4,
	184: 0x137664c215076c1e,
	185: 0x85c48bf82d762f3f,
	186: 0x3952556c5a83ac63,
	187: 0xb5b88be33917111b,
	188: 0x85cf7109a806365e,
	189: 0xa1c4d68c5c586ca3,
	190: 0xa2a534a05037d38,
	191: 0x4dc55c239b61983a,
	192: 0x9c17bf2bc148fff6,
	193: 0x6b7aa1fc5dcd0e78,
	194: 0x354763ab1aab9b61,
	195: 0x881918707d4f56dc,
	196: 0xc0c995c4dda8525a,
	197: 0x8439489e93a4e788,
	198: 0xaa836b52a8933cb9,
	199: 0xc512a3319930e0bc,
}
