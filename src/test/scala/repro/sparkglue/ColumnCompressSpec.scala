package repro.sparkglue

import repro.SparkSpec
import repro.core.Codecs
import repro.data.Tables

class ColumnCompressSpec extends SparkSpec {

  test("codec registry resolves the five Fig 12 schemes") {
    Seq("LeCo-fix", "LeCo-var", "FOR", "Delta-fix", "Delta-var", "rANS", "Elias-Fano")
      .foreach(id => assert(Codecs.byName(id).name == id))
    intercept[IllegalArgumentException](Codecs.byName("nope"))
  }

  test("compressColumn counts every value exactly once") {
    import spark.implicits._
    val df = spark.range(10_000).toDF("v")
    val s = ColumnCompress.compressColumn(df, "v", "LeCo-fix")
    assert(s.nValues == 10_000)
    assert(s.compressedBytes > 0)
  }

  test("sequential column compresses to near nothing with LeCo, poorly with rANS") {
    import spark.implicits._
    val df = spark.range(50_000).toDF("v").coalesce(2)
    val leco = ColumnCompress.compressColumn(df, "v", "LeCo-fix")
    val rans = ColumnCompress.compressColumn(df, "v", "rANS")
    assert(leco.compressedBytes * 4 < rans.compressedBytes)
  }

  test("inversion count: sorted column has zero, reversed has n-1 per chunk") {
    import spark.implicits._
    val df = spark.range(1000).toDF("v").coalesce(1)
    assert(ColumnCompress.compressColumn(df, "v", "FOR").inversions == 0)
    val rev = spark.range(1000).select((org.apache.spark.sql.functions.lit(1000) -
      org.apache.spark.sql.functions.col("id")) as "v").coalesce(1)
    assert(ColumnCompress.compressColumn(rev, "v", "FOR").inversions == 999)
  }

  test("ndv counts distinct values") {
    import spark.implicits._
    val df = spark.range(1000).select((org.apache.spark.sql.functions.col("id") % 10) as "v")
    assert(ColumnCompress.ndv(df, "v") == 10)
  }

  test("Tables registry produces nine sorted-by-PK tables") {
    val all = Tables.all(spark, sf = 0.005)
    assert(all.map(_.name) == Seq("lineitem", "partsupp", "orders", "inventory",
                                  "catalog_sales", "date_dim", "geo", "stock", "course_info"))
    for (t <- all) {
      val rows = t.df.limit(5000).collect()
      assert(rows.nonEmpty, t.name)
      val sortIdx = t.df.columns.indexOf(t.sortCol)
      val keys = rows.map(_.getLong(sortIdx))
      assert(keys.sameElements(keys.sorted), s"${t.name} not sorted by ${t.sortCol}")
    }
  }

  test("tableRatio aggregates across columns") {
    val li = Tables.lineitem(spark, 0.002)
    val (ratio, comp, raw) = ColumnCompress.tableRatio(spark, li, Seq("l_orderkey", "l_partkey"), "FOR")
    assert(ratio > 0 && ratio <= 1.2)
    assert(comp > 0 && raw > 0)
  }
}
