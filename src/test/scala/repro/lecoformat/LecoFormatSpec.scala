package repro.lecoformat

import java.io.File
import repro.SparkSpec

/** Writer/reader integration over real Spark jobs: the encode happens in
  * executor tasks, the read path through LecoFileReader / LecoTable.
  */
class LecoFormatSpec extends SparkSpec {

  private lazy val base: String = java.nio.file.Files.createTempDirectory("lecofmt").toString

  private def writeSample(enc: Encoding, name: String, zstd: Boolean = false): (String, Array[Long], Array[Long]) = {
    import spark.implicits._
    val n = 40_000
    val r = new scala.util.Random(5)
    var t = 1000L
    val ts = Array.fill(n) { t += r.nextInt(5); t }
    val id = Array.fill(n)(r.nextLong() % 1_000_000_000L)
    val df = spark.sparkContext.parallelize(ts.zip(id).toSeq, 4).toDF("ts", "id")
    val dir = s"$base/$name"
    LecoWriter.write(df, dir, enc, partSize = 512, zstd = zstd, rowGroupRows = 8192)
    (dir, ts, id)
  }

  for ((encName, enc) <- Seq("Default" -> Encoding.Default, "FOR" -> Encoding.For,
                             "LeCo" -> Encoding.LecoFix)) {
    test(s"$encName: written table decodes back to the source rows") {
      val (dir, ts, id) = writeSample(enc, s"rt_$encName")
      var gotTs = List.empty[Array[Long]]
      var gotId = List.empty[Array[Long]]
      for (f <- LecoTable.partFiles(dir)) {
        val rd = new LecoFileReader(f)
        assert(rd.columns.sameElements(Array("ts", "id")))
        for (g <- 0 until rd.numGroups) {
          gotTs ::= rd.readChunk(g, 0).decodeAll()
          gotId ::= rd.readChunk(g, 1).decodeAll()
        }
      }
      // executor task order is nondeterministic across files; compare as sorted multisets
      assert(gotTs.flatten.sorted.sameElements(ts.sorted))
      assert(gotId.flatten.sorted.sameElements(id.sorted))
    }
  }

  test("zone maps match chunk min/max") {
    val (dir, _, _) = writeSample(Encoding.LecoFix, "zones")
    for (f <- LecoTable.partFiles(dir)) {
      val rd = new LecoFileReader(f)
      for (g <- 0 until rd.numGroups; c <- 0 until 2) {
        val vals = rd.readChunk(g, c).decodeAll()
        val (lo, hi) = rd.zone(g, c)
        assert(lo == vals.min && hi == vals.max)
      }
    }
  }

  test("filterScan returns exactly the brute-force result (all encodings)") {
    val results = for ((encName, enc) <- Seq("Default" -> Encoding.Default,
                                             "FOR" -> Encoding.For, "LeCo" -> Encoding.LecoFix)) yield {
      val (dir, ts, id) = writeSample(enc, s"fs_$encName")
      val pred = TimeOfDayPredicate(1000, 200, 260)
      val got = LecoTable.filterScan(dir, "ts", pred, "id").sorted
      val brute = ts.zip(id).collect { case (t, i) if pred.test(t) => i }.sorted
      assert(got.sameElements(brute), s"$encName mismatch: ${got.length} vs ${brute.length}")
      got.toSeq
    }
    assert(results.distinct.size == 1, "all encodings must agree")
  }

  test("bitmapSelect returns the values at the requested global positions") {
    val (dir, ts, _) = writeSample(Encoding.LecoFix, "bm")
    // positions are global row indices in file/group order — recover the
    // stored order first, then check value-for-position
    val stored = {
      val buf = scala.collection.mutable.ArrayBuffer[Long]()
      for (f <- LecoTable.partFiles(dir)) {
        val rd = new LecoFileReader(f)
        for (g <- 0 until rd.numGroups) buf ++= rd.readChunk(g, 0).decodeAll()
      }
      buf.toArray
    }
    assert(stored.sorted.sameElements(ts.sorted))
    val r = new scala.util.Random(6)
    val positions = Array.fill(500)(r.nextInt(stored.length).toLong).distinct.sorted
    val got = LecoTable.bitmapSelect(dir, "ts", positions)
    positions.indices.foreach(i => assert(got(i) == stored(positions(i).toInt)))
  }

  test("zstd-compressed files are smaller and read identically") {
    val (dirPlain, ts, _) = writeSample(Encoding.LecoFix, "z0")
    val (dirZ, _, _)      = writeSample(Encoding.LecoFix, "z1", zstd = true)
    assert(LecoTable.totalSizeBytes(dirZ) < LecoTable.totalSizeBytes(dirPlain))
    val a = LecoTable.filterScan(dirPlain, "ts", RangePredicate(ts(100), ts(5000)), "id").sorted
    val b = LecoTable.filterScan(dirZ, "ts", RangePredicate(ts(100), ts(5000)), "id").sorted
    assert(a.sameElements(b))
  }

  test("a double column is rejected, naming the column and its type") {
    import spark.implicits._
    val df = Seq((1L, 1.5), (2L, 2.5)).toDF("k", "price")
    val e = intercept[IllegalArgumentException] {
      LecoWriter.write(df, s"$base/reject_double", Encoding.LecoFix)
    }
    assert(e.getMessage.contains("price") && e.getMessage.contains("double"), e.getMessage)
  }

  test("a null value fails the write, naming the column") {
    import spark.implicits._
    val df = Seq(Some(1L), None, Some(3L)).toDF("maybe")
    val e = intercept[Exception] {
      LecoWriter.write(df.coalesce(1), s"$base/reject_null", Encoding.For)
    }
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.getMessage != null && c.getMessage.contains("column `maybe` holds a null")),
           causes.map(_.toString).mkString(" <- "))
  }

  test("a rejected schema leaves an existing table directory intact") {
    import spark.implicits._
    val (dir, ts, _) = writeSample(Encoding.LecoFix, "keep")
    val before = LecoTable.partFiles(dir).map(f => f.getName -> f.length()).toMap
    intercept[IllegalArgumentException] {
      LecoWriter.write(Seq(0.5, 1.5).toDF("ts"), dir, Encoding.LecoFix)
    }
    assert(LecoTable.partFiles(dir).map(f => f.getName -> f.length()).toMap == before)
    val got = LecoTable.partFiles(dir).flatMap { f =>
      val rd = new LecoFileReader(f)
      (0 until rd.numGroups).flatMap(g => rd.readChunk(g, 0).decodeAll())
    }
    assert(got.sorted.sameElements(ts.sorted))
  }

  test("LeCo files are smaller than FOR which are smaller than Default on sorted ts") {
    import spark.implicits._
    val n = 60_000
    var t = 5L
    val r = new scala.util.Random(8)
    val ts = Array.fill(n) { t += r.nextInt(6); t }
    val df = spark.sparkContext.parallelize(ts.toSeq, 2).toDF("ts")
    val sizes = Seq(Encoding.Default, Encoding.For, Encoding.LecoFix).map { e =>
      val d = s"$base/size_$e"
      LecoWriter.write(df, d, e, partSize = 1024, rowGroupRows = 16384)
      LecoTable.totalSizeBytes(d)
    }
    assert(sizes(2) < sizes(1), s"LeCo ${sizes(2)} !< FOR ${sizes(1)}")
    assert(sizes(1) < sizes(0), s"FOR ${sizes(1)} !< Default ${sizes(0)}")
  }
}
