package repro.core

import repro.core.baseline._
import repro.lecoformat.ScanPredicate

/** A compressed representation of a `Long` column chunk — the one chunk type
  * shared by the microbenchmarks and the `leco` file format.
  *
  * `sizeBytes` is the accounting size used for compression ratios: the bytes
  * a serialized blob of this representation needs (headers + metadata +
  * packed payload). `get` is point random access; `decodeAll` is the
  * sequential full-decode path used by scans.
  */
trait CompressedInts {
  def length: Int
  def sizeBytes: Long
  def get(i: Int): Long
  def decodeAll(): Array[Long]

  /** Bytes spent on models/headers (vs. the delta payload) — the Fig 10
    * compression-ratio breakdown. 0 where the split is not meaningful.
    */
  def modelBytes: Long = 0L

  /** Values at `positions` by random access (late materialization). */
  def gather(positions: Array[Int]): Array[Long] = {
    val out = new Array[Long](positions.length)
    var i = 0
    while (i < positions.length) { out(i) = get(positions(i)); i += 1 }
    out
  }

  /** Ascending positions matching `pred`, with whatever pruning the
    * encoding supports; default = decode everything and test.
    */
  def scan(pred: ScanPredicate): Array[Int] = {
    val vals = decodeAll()
    val out = new scala.collection.mutable.ArrayBuffer[Int]()
    var i = 0
    while (i < vals.length) { if (pred.test(vals(i))) out += i; i += 1 }
    out.toArray
  }
}

/** One encoded partition of a partitioned codec: the per-model part of
  * LeCo's "model + delta" scheme (§2), positions `0 until len`.
  */
trait EncodedPartition {
  def len: Int
  def get(j: Int): Long
  def decodeInto(out: Array[Long], outOff: Int): Unit
  def sizeBytes: Long
}

/** The partition layer shared by the partitioned codecs: `parts` cover
  * `0 until n` in order. Each final container keeps its own one-line `get`
  * (one call site per partition type keeps random access monomorphic).
  */
abstract class Partitioned[P <: EncodedPartition](val n: Int, val parts: Array[P])
    extends CompressedInts {
  final def length: Int = n
  final def sizeBytes: Long = {
    var total = 0L
    var k = 0
    while (k < parts.length) { total += parts(k).sizeBytes; k += 1 }
    total
  }
  final def decodeAll(): Array[Long] = {
    val out = new Array[Long](n)
    var off = 0
    var k = 0
    while (k < parts.length) { parts(k).decodeInto(out, off); off += parts(k).len; k += 1 }
    out
  }
}

/** Variable-length partitions: partition k starts at `starts(k)`. */
abstract class VarPartitioned[P <: EncodedPartition](n: Int, val starts: Array[Int], parts: Array[P])
    extends Partitioned[P](n, parts) {
  /** Lower-bound search: largest k with starts(k) <= i. */
  @inline final def partitionOf(i: Int): Int = {
    var lo = 0; var hi = starts.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (starts(mid) <= i) lo = mid else hi = mid - 1
    }
    lo
  }
}

/** An integer compression scheme (one of the seven evaluated in §4). */
trait IntCodec {
  def name: String
  def compress(values: Array[Long]): CompressedInts

  /** Compression ratio = compressed / uncompressed, uncompressed at
    * `rawBytesPerValue` bytes per value (the paper uses the dataset's
    * declared 32/64-bit width).
    */
  def ratio(values: Array[Long], rawBytesPerValue: Int): Double = {
    val c = compress(values)
    c.sizeBytes.toDouble / (values.length.toLong * rawBytesPerValue)
  }
}

/** Shared helpers for per-partition formats. */
object Codec {
  /** Header cost (bytes) of a LeCo linear partition: θ0, θ1 (two f64), the
    * delta bit width (1B) and the partition length / start index (4B).
    */
  val LinearHeaderBytes: Int = 8 + 8 + 1 + 4
  /** Header cost of a FOR / Delta partition: 8B reference + width + length. */
  val SimpleHeaderBytes: Int = 8 + 1 + 4
}

/** The codec registry: the §4 integer schemes by name, at the settings the
  * benches use (partition size searched, τ = 0.1). Callers ship the name
  * into Spark closures instead of a codec.
  */
object Codecs {
  /** `rawBytesPerValue` is the declared value width rANS codes bytes of. */
  def byName(name: String, rawBytesPerValue: Int = 8): IntCodec = name match {
    case "FOR"        => new ForCodec(0)
    case "Elias-Fano" => new EliasFanoCodec(0)
    case "Delta-fix"  => new DeltaFixCodec(0)
    case "Delta-var"  => new DeltaVarCodec(0.1)
    case "LeCo-fix"   => new LecoFixCodec(0)
    case "LeCo-var"   => new LecoVarCodec(0.1)
    case "rANS"       => new RansCodec(rawBytesPerValue)
    case other        => throw new IllegalArgumentException(s"unknown codec $other")
  }
}
