package repro.lecoformat

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** Property test of the chunk read operations every file encoding serves:
  * `scan` (with its zone/partition skipping and LeCo's in-partition jumps)
  * must equal a brute-force filter, and `gather`/`get` must agree with
  * `decodeAll`, on sizes around the partition boundaries.
  */
class ChunkScanPropSpec extends AnyFunSuite {

  private val PartSize = 64

  private val sizes: Gen[Int] =
    Gen.oneOf(0, 1, PartSize - 1, PartSize, PartSize + 1, 3 * PartSize, 7 * PartSize + 5)

  // Magnitudes stay below 2^41: this spec is about the scan logic. The codecs
  // are not yet exact over the whole Long domain (LeCo-fix mis-decodes above
  // 2^53, FOR and LeCo-fix reject partitions spanning more than 2^63), a
  // separate known defect.
  private val base: Gen[Long] = Gen.oneOf(Gen.choose(-1000000L, 1000000L), Gen.const(1L << 40))

  /** A noisy line with some adjacent pairs swapped: LeCo's jumps fire on
    * these when the noise is small against the predicate's period.
    */
  private def nearSorted(n: Int): Gen[Array[Long]] = for {
    b     <- base
    slope <- Gen.choose(1L, 60L)
    amp   <- Gen.oneOf(0L, 3L, 40L, 400L)
    noise <- Gen.listOfN(n, Gen.choose(0L, amp))
    swaps <- Gen.listOfN(n / 16, Gen.choose(0, math.max(0, n - 2)))
  } yield {
    val vs = Array.tabulate(n)(i => b + slope * i + noise(i))
    swaps.foreach { i => val t = vs(i); vs(i) = vs(i + 1); vs(i + 1) = t }
    vs
  }

  private def random(n: Int): Gen[Array[Long]] =
    Gen.listOfN(n, Gen.choose(-(1L << 40), 1L << 40)).map(_.toArray)

  private def runs(n: Int): Gen[Array[Long]] =
    Gen.listOfN(n, Gen.zip(Gen.choose(-500L, 500L), Gen.choose(1, 50)))
      .map(_.iterator.flatMap { case (v, k) => Iterator.fill(k)(v) }.take(n).toArray)

  private val values: Gen[Array[Long]] =
    sizes.flatMap(n => Gen.oneOf(nearSorted(n), random(n), runs(n)))

  private def predicate(vs: Array[Long]): Gen[ScanPredicate] = {
    val anchor: Gen[Long] =
      if (vs.isEmpty) Gen.choose(-1000L, 1000L)
      else Gen.zip(Gen.oneOf(vs.toSeq), Gen.choose(-50L, 50L)).map { case (v, d) => v + d }
    val range = Gen.zip(anchor, anchor).map { case (a, b) => RangePredicate(math.min(a, b), math.max(a, b)) }
    val timeOfDay = for {
      mod <- Gen.oneOf(Gen.choose(2L, 200L), Gen.choose(200L, 20000L))
      t1  <- Gen.choose(0L, mod - 1)
      w   <- Gen.oneOf(Gen.choose(1L, math.max(1L, mod / 20)), Gen.choose(1L, mod - t1))
    } yield TimeOfDayPredicate(mod, t1, math.min(mod, t1 + w))
    Gen.oneOf(range, timeOfDay)
  }

  private def check(p: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(20240611L))
    val res = Test.check(params, p)
    assert(res.passed, Pretty.pretty(res))
  }

  for ((encName, enc) <- Seq("Default" -> Encoding.Default, "FOR" -> Encoding.For,
                             "LeCo" -> Encoding.LecoFix);
       zstd <- Seq(false, true)) {
    test(s"$encName(zstd=$zstd) scan, gather and get agree with a brute-force decode") {
      check(Prop.forAllNoShrink(values.flatMap(vs => predicate(vs).map(vs -> _))) { case (vs, pred) =>
        val chunk = ChunkCodec.decode(ChunkCodec.encode(vs, enc, PartSize, zstd))
        val all = chunk.decodeAll()
        val brute = vs.indices.filter(i => pred.test(vs(i))).toArray
        val hits = chunk.scan(pred)
        val probe = vs.indices.filter(_ % 3 == 0).toArray
        Prop.all(
          Prop(all.sameElements(vs)) :| "decodeAll round-trips",
          Prop(hits.sameElements(brute)) :| s"scan($pred) = ${hits.length} positions, brute force ${brute.length}",
          Prop(chunk.gather(hits).sameElements(hits.map(all(_)))) :| "gather at the scan hits",
          Prop(chunk.gather(probe).sameElements(probe.map(all(_)))) :| "gather at every third position",
          Prop(vs.indices.forall(i => chunk.get(i) == all(i))) :| "get at every position",
        )
      })
    }
  }
}
