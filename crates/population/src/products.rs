//! The interception-product catalog.
//!
//! Each entry reproduces one row of the paper's evidence: the issuer
//! strings of Table 4, the §5.1/§6.4 malware families, the §5.2 negligent
//! behaviours and the §6.1 telecom proxies. Weights `w1`/`w2` are the
//! product's expected share of *proxied connections* in study 1 and
//! study 2 respectively, taken from the paper's observed counts where
//! reported and from category remainders (Tables 5/6) otherwise.

use tlsfoe_x509::cert::SignatureAlgorithm;

use crate::model::StudyEra;

/// Index into the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProductId(pub u16);

/// The paper's claimed-issuer taxonomy (Tables 5 and 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProxyCategory {
    /// "Business/Personal Firewall" — ambiguous firewall products.
    BusinessPersonalFirewall,
    /// "Business Firewall".
    BusinessFirewall,
    /// "Personal Firewall".
    PersonalFirewall,
    /// "Parental Control".
    ParentalControl,
    /// "Organization" (corporate/agency names).
    Organization,
    /// "School".
    School,
    /// "Malware".
    Malware,
    /// "Unknown" (null/blank/uncategorizable issuers).
    Unknown,
    /// "Telecom".
    Telecom,
    /// "Certificate Authority" (forged CA issuer strings).
    CertificateAuthority,
}

impl ProxyCategory {
    /// Row label as the paper prints it.
    pub fn label(self) -> &'static str {
        match self {
            ProxyCategory::BusinessPersonalFirewall => "Business/Personal Firewall",
            ProxyCategory::BusinessFirewall => "Business Firewall",
            ProxyCategory::PersonalFirewall => "Personal Firewall",
            ProxyCategory::ParentalControl => "Parental Control",
            ProxyCategory::Organization => "Organization",
            ProxyCategory::School => "School",
            ProxyCategory::Malware => "Malware",
            ProxyCategory::Unknown => "Unknown",
            ProxyCategory::Telecom => "Telecom",
            ProxyCategory::CertificateAuthority => "Certificate Authority",
        }
    }

    /// All categories in the papers' table order.
    pub fn all() -> [ProxyCategory; 10] {
        [
            ProxyCategory::BusinessPersonalFirewall,
            ProxyCategory::BusinessFirewall,
            ProxyCategory::PersonalFirewall,
            ProxyCategory::ParentalControl,
            ProxyCategory::Organization,
            ProxyCategory::School,
            ProxyCategory::Malware,
            ProxyCategory::Unknown,
            ProxyCategory::Telecom,
            ProxyCategory::CertificateAuthority,
        ]
    }
}

/// How a product fills substitute-certificate subjects (§5.2: 110
/// substitute certificates had modified subjects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubjectStyle {
    /// Copy the probed hostname exactly (the common case).
    Exact,
    /// Replace the host with a wildcarded IP subnet ("in many cases a
    /// wildcarded IP address was used that only designated the subnet").
    WildcardIpSubnet,
    /// Issue for an entirely different domain (the paper saw
    /// mail.google.com and urs.microsoft.com).
    WrongDomain(&'static str),
    /// Keep the host but tweak auxiliary subject attributes.
    Tweaked,
}

/// What the proxy does when the *upstream* certificate does not validate
/// (the §5.2 firewall audit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpstreamPolicy {
    /// Doesn't check upstream at all.
    Blind,
    /// Blocks the connection (Bitdefender: "not only blocked this forged
    /// certificate, but also blocked a forged certificate that resolved
    /// to a new root").
    BlockInvalid,
    /// Masks the forgery behind its own trusted substitute (Kurupira:
    /// "replaced our untrusted certificate with a signed trusted one").
    MaskInvalid,
}

/// Geographic flavour for product prevalence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountryBias {
    /// Uniform across the study's exposure.
    Global,
    /// Strongly biased to one country (multiplier applied there).
    Boost(&'static str, f64),
    /// Seen from exactly one country (e.g. "DSP": one Irish agency).
    Only(&'static str),
}

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct ProductSpec {
    /// Issuer Organization string the product writes into substitutes
    /// (`None` models the null/blank issuers — 829 in study 1).
    pub issuer_org: Option<&'static str>,
    /// Issuer Common Name (some products identify here instead).
    pub issuer_cn: Option<&'static str>,
    /// Claimed-issuer category.
    pub category: ProxyCategory,
    /// Expected share of proxied connections, study 1 (0 = absent).
    pub w1: f64,
    /// Expected share of proxied connections, study 2.
    pub w2: f64,
    /// Substitute leaf public-key size (the §5.2 key-size analysis:
    /// 50.59% were 1024-bit downgrades, 21 were 512-bit, 7 were 2432).
    pub key_bits: usize,
    /// Signature hash (23 proxies used MD5; 5 used SHA-256).
    pub sig_alg: SignatureAlgorithm,
    /// Copy the upstream certificate's issuer name verbatim — the 49
    /// forged "DigiCert Inc" issuers.
    pub copy_issuer: bool,
    /// Subject construction.
    pub subject_style: SubjectStyle,
    /// Reuse one fixed leaf key for every substitute (the IopFail
    /// malware shipped the same 512-bit key to 14 countries).
    pub shared_leaf_key: bool,
    /// Whitelist mega-popular sites (Facebook-class) — §6.3/§8: the
    /// Huang baseline sees half our rate because of these.
    pub whitelists_popular: bool,
    /// Upstream validation behaviour.
    pub upstream_policy: UpstreamPolicy,
    /// Geographic prevalence flavour.
    pub bias: CountryBias,
}

impl ProductSpec {
    /// Display name for analysis output (issuer org, CN, or "Null").
    pub fn display_name(&self) -> &'static str {
        self.issuer_org.or(self.issuer_cn).unwrap_or("Null")
    }

    /// Expected share of proxied connections in `era` (0 = the product
    /// is absent from that study and never minted).
    pub fn era_weight(&self, era: StudyEra) -> f64 {
        match era {
            StudyEra::Study1 => self.w1,
            StudyEra::Study2 => self.w2,
        }
    }

    /// True when this product's substitute chains are a function of the
    /// probed hostname alone — no destination-address input (wildcard-IP
    /// subjects fold the /24 into the mint) and no upstream-certificate
    /// input (issuer-copying products fold the upstream issuer DN in).
    ///
    /// Exactly these products mint under cache variant 0 for every
    /// impression, which is what makes their `(product, host)` chains
    /// enumerable — and therefore pre-mintable — from the host
    /// catalog at study startup (`PopulationModel::warm_substitutes`).
    pub fn mints_from_host_alone(&self) -> bool {
        !self.copy_issuer && self.subject_style != SubjectStyle::WildcardIpSubnet
    }
}

fn firewall(org: &'static str, w1: f64, w2: f64, key_bits: usize) -> ProductSpec {
    ProductSpec {
        issuer_org: Some(org),
        issuer_cn: Some(org),
        category: ProxyCategory::BusinessPersonalFirewall,
        w1,
        w2,
        key_bits,
        sig_alg: SignatureAlgorithm::Sha1WithRsa,
        copy_issuer: false,
        subject_style: SubjectStyle::Exact,
        shared_leaf_key: false,
        whitelists_popular: false,
        upstream_policy: UpstreamPolicy::Blind,
        bias: CountryBias::Global,
    }
}

fn org(name: &'static str, w1: f64, w2: f64) -> ProductSpec {
    ProductSpec {
        issuer_org: Some(name),
        issuer_cn: None,
        category: ProxyCategory::Organization,
        w1,
        w2,
        key_bits: 2048,
        sig_alg: SignatureAlgorithm::Sha1WithRsa,
        copy_issuer: false,
        subject_style: SubjectStyle::Exact,
        shared_leaf_key: false,
        whitelists_popular: false,
        upstream_policy: UpstreamPolicy::Blind,
        bias: CountryBias::Global,
    }
}

fn malware(name: &'static str, w1: f64, w2: f64) -> ProductSpec {
    ProductSpec {
        issuer_org: Some(name),
        issuer_cn: Some(name),
        category: ProxyCategory::Malware,
        w1,
        w2,
        key_bits: 2048,
        sig_alg: SignatureAlgorithm::Sha1WithRsa,
        copy_issuer: false,
        subject_style: SubjectStyle::Exact,
        shared_leaf_key: false,
        whitelists_popular: false, // ad injectors want ALL the traffic
        upstream_policy: UpstreamPolicy::Blind,
        bias: CountryBias::Global,
    }
}

/// Build the full catalog. Index order is stable (ProductId = position).
pub fn catalog() -> Vec<ProductSpec> {
    let mut v: Vec<ProductSpec> = Vec::new();

    // ---- Firewalls (Tables 4/5/6) -------------------------------------
    // Bitdefender and PSafe carry the 1024-bit key-downgrade mass:
    // 4,788 + 1,200 = 5,988 ≈ the 5,951 (50.59%) downgraded substitutes.
    let mut bd = firewall("Bitdefender", 4788.0, 17500.0, 1024);
    bd.upstream_policy = UpstreamPolicy::BlockInvalid; // §5.2 audit
    bd.whitelists_popular = true;
    v.push(bd);
    let mut psafe = firewall("PSafe Tecnologia S.A.", 1200.0, 4400.0, 1024);
    psafe.bias = CountryBias::Boost("BR", 40.0);
    psafe.whitelists_popular = true;
    v.push(psafe);
    v.push(firewall("ESET spol. s r. o.", 927.0, 3400.0, 2048));
    v.push(firewall("Kaspersky Lab ZAO", 589.0, 2100.0, 2048));
    v.push(firewall("Fortinet", 310.0, 1500.0, 2048));
    // Kurupira: the parental filter that MASKS forged upstream certs.
    let mut kurupira = firewall("Kurupira.NET", 267.0, 950.0, 2048);
    kurupira.upstream_policy = UpstreamPolicy::MaskInvalid;
    v.push(kurupira);
    v.push(firewall("NordNet", 61.0, 240.0, 2048));
    v.push(firewall("Sophos Web Appliance", 90.0, 2200.0, 2048));
    v.push(firewall("Cisco IronPort", 80.0, 2000.0, 2048));
    v.push(firewall("Barracuda Networks", 0.0, 1800.0, 2048));

    // Business firewall (Table 5: 69; Table 6: 1,231).
    let mut southern = firewall("Southern Company Services", 62.0, 700.0, 2048);
    southern.category = ProxyCategory::BusinessFirewall;
    v.push(southern);
    let mut bizfw = firewall("Blue Coat Systems", 7.0, 531.0, 2048);
    bizfw.category = ProxyCategory::BusinessFirewall;
    v.push(bizfw);

    // Personal firewall (Table 5: 11; Table 6: 536).
    let mut personal = firewall("Outpost Personal Firewall", 11.0, 536.0, 2048);
    personal.category = ProxyCategory::PersonalFirewall;
    v.push(personal);

    // ---- Parental control ----------------------------------------------
    let mut qustodio = firewall("Qustodio", 109.0, 290.0, 2048);
    qustodio.category = ProxyCategory::ParentalControl;
    v.push(qustodio);
    let mut cw = firewall("ContentWatch, Inc.", 42.0, 100.0, 2048);
    cw.category = ProxyCategory::ParentalControl;
    v.push(cw);
    let mut ns = firewall("NetSpark, Inc.", 42.0, 38.0, 2048);
    ns.category = ProxyCategory::ParentalControl;
    v.push(ns);

    // ---- Organizations --------------------------------------------------
    let mut posco = org("POSCO", 167.0, 500.0);
    posco.bias = CountryBias::Boost("KR", 60.0);
    v.push(posco);
    v.push(org("Target Corporation", 52.0, 160.0));
    v.push(org("IBRD", 26.0, 80.0));
    v.push(org("Lawrence Livermore National Laboratory", 45.0, 140.0));
    v.push(org("Lincoln Financial Group", 40.0, 120.0));
    // "DSP": Ireland's Department of Social Protection — one IP, 204 hits.
    let mut dsp = ProductSpec {
        issuer_org: None,
        issuer_cn: Some("DSP"),
        ..org("_dsp_placeholder", 0.0, 204.0)
    };
    dsp.issuer_org = None;
    dsp.bias = CountryBias::Only("IE");
    v.push(dsp);
    // Generic corporate filters filling the Organization remainder
    // (Table 5: 1,394 total; Table 6: 3,531).
    v.push(org("Acme Industrial Holdings", 300.0, 600.0));
    v.push(org("Continental Logistics Group", 250.0, 500.0));
    v.push(org("Meridian Health Systems", 200.0, 450.0));
    v.push(org("Pacific Rim Manufacturing", 150.0, 400.0));
    v.push(org("First National Trust", 164.0, 377.0));

    // ---- Schools ----------------------------------------------------------
    let mut school1 = org("Unified School District 12", 20.0, 300.0);
    school1.category = ProxyCategory::School;
    v.push(school1);
    let mut school2 = org("State University Network Services", 12.0, 182.0);
    school2.category = ProxyCategory::School;
    v.push(school2);

    // ---- Malware (§5.1, §6.4) --------------------------------------------
    let mut sendori = malware("Sendori, Inc", 966.0, 400.0);
    sendori.bias = CountryBias::Global; // 30 distinct countries
    v.push(sendori);
    v.push(malware("WebMakerPlus Ltd", 95.0, 150.0));
    // IopFailZeroAccessCreate: issuer CN only, one shared 512-bit key,
    // MD5 signatures — the paper's most alarming negligence cluster.
    v.push(ProductSpec {
        issuer_org: None,
        issuer_cn: Some("IopFailZeroAccessCreate"),
        category: ProxyCategory::Malware,
        w1: 21.0,
        w2: 60.0,
        key_bits: 512,
        sig_alg: SignatureAlgorithm::Md5WithRsa,
        copy_issuer: false,
        subject_style: SubjectStyle::Exact,
        shared_leaf_key: true,
        whitelists_popular: false,
        upstream_policy: UpstreamPolicy::Blind,
        bias: CountryBias::Global,
    });
    // Spam-industry proxies.
    v.push(malware("Sweesh LTD", 39.0, 80.0));
    v.push(malware("AtomPark Software Inc", 20.0, 50.0));
    // Study-2-only discoveries.
    v.push(malware("Objectify Media Inc", 0.0, 1069.0));
    v.push(malware("Superfish, Inc.", 0.0, 610.0));
    v.push(malware("WiredTools LTD", 0.0, 131.0));
    let mut widgits = malware("Internet Widgits Pty Ltd", 0.0, 67.0);
    widgits.key_bits = 512; // botnet-grade hygiene
    v.push(widgits);
    v.push(malware("ImpressX OU", 0.0, 16.0));

    // ---- Unknown -----------------------------------------------------------
    // Null issuer: 829 connections in study 1, part of 1,518 null/blank
    // in study 2.
    v.push(ProductSpec {
        issuer_org: None,
        issuer_cn: None,
        category: ProxyCategory::Unknown,
        w1: 829.0,
        w2: 1518.0,
        key_bits: 2048,
        sig_alg: SignatureAlgorithm::Sha1WithRsa,
        copy_issuer: false,
        subject_style: SubjectStyle::Exact,
        shared_leaf_key: false,
        whitelists_popular: false,
        upstream_policy: UpstreamPolicy::Blind,
        bias: CountryBias::Global,
    });
    // "kowsar": 268 hits from 266 IPs across many ISPs — personal
    // firewall or botnet, unclassifiable.
    let mut kowsar = malware("kowsar", 0.0, 268.0);
    kowsar.category = ProxyCategory::Unknown;
    v.push(kowsar);
    let mut infotech = org("Information Technology", 0.0, 33.0);
    infotech.category = ProxyCategory::Unknown;
    v.push(infotech);
    let mut myinternets = org("MYInternetS", 0.0, 36.0);
    myinternets.category = ProxyCategory::Unknown;
    myinternets.bias = CountryBias::Boost("DK", 20.0);
    v.push(myinternets);
    // "Cloud Services" (study 1 rank 20) and the opaque study-2 mass:
    // targeted countries showed proxies that disclose nothing (§6.1).
    let mut cloud = org("Cloud Services", 23.0, 400.0);
    cloud.category = ProxyCategory::Unknown;
    v.push(cloud);
    let mut opaque = ProductSpec {
        issuer_org: Some("gateway"),
        issuer_cn: Some("gateway"),
        category: ProxyCategory::Unknown,
        w1: 0.0,
        w2: 3200.0,
        key_bits: 1024,
        sig_alg: SignatureAlgorithm::Sha1WithRsa,
        copy_issuer: false,
        subject_style: SubjectStyle::Exact,
        shared_leaf_key: false,
        whitelists_popular: false,
        upstream_policy: UpstreamPolicy::Blind,
        bias: CountryBias::Global,
    };
    // Over-represented in the five targeted countries (§6.1's alarming
    // unknown increase).
    opaque.bias = CountryBias::Boost("targeted", 3.0);
    v.push(opaque);

    // ---- Telecom (study 2 only) --------------------------------------------
    let mut lg = org("LG UPLUS", 0.0, 375.0);
    lg.category = ProxyCategory::Telecom;
    lg.bias = CountryBias::Only("KR");
    v.push(lg);
    let mut telecom2 = org("Turk Telekom Gateway", 0.0, 40.0);
    telecom2.category = ProxyCategory::Telecom;
    telecom2.bias = CountryBias::Boost("TR", 50.0);
    v.push(telecom2);
    let mut telecom3 = org("Claro Servicios", 0.0, 32.0);
    telecom3.category = ProxyCategory::Telecom;
    telecom3.bias = CountryBias::Boost("BR", 30.0);
    v.push(telecom3);

    // ---- Forged Certificate Authority ---------------------------------------
    // 49 substitutes claimed "DigiCert Inc" by copying our original
    // certificate's issuer field — CertificateAuthority category.
    v.push(ProductSpec {
        issuer_org: Some("DigiCert Inc"),
        issuer_cn: Some("DigiCert High Assurance CA-3"),
        category: ProxyCategory::CertificateAuthority,
        w1: 49.0,
        w2: 68.0,
        key_bits: 2048,
        sig_alg: SignatureAlgorithm::Sha1WithRsa,
        copy_issuer: true,
        subject_style: SubjectStyle::Exact,
        shared_leaf_key: false,
        whitelists_popular: false,
        upstream_policy: UpstreamPolicy::Blind,
        bias: CountryBias::Global,
    });

    // ---- Negligence micro-clusters (§5.2) ------------------------------------
    // Two further MD5 signers (23 total − 21 IopFail).
    let mut md5_proxy = firewall("SecureGate Appliance", 2.0, 5.0, 2048);
    md5_proxy.sig_alg = SignatureAlgorithm::Md5WithRsa;
    md5_proxy.category = ProxyCategory::Unknown;
    v.push(md5_proxy);
    // Seven substitutes with 2432-bit keys ("better than our original").
    let mut big_key = firewall("Overachiever Security", 7.0, 15.0, 2432);
    big_key.category = ProxyCategory::Unknown;
    v.push(big_key);
    // Five SHA-256 signers.
    let mut sha2 = firewall("ModernTLS Gateway", 5.0, 12.0, 2048);
    sha2.sig_alg = SignatureAlgorithm::Sha256WithRsa;
    sha2.category = ProxyCategory::Unknown;
    v.push(sha2);
    // 49 wildcard-IP subjects.
    let mut wildcard_ip = firewall("PerimeterWatch", 49.0, 110.0, 2048);
    wildcard_ip.subject_style = SubjectStyle::WildcardIpSubnet;
    wildcard_ip.category = ProxyCategory::Organization;
    v.push(wildcard_ip);
    // Two wrong-domain substitutes (mail.google.com, urs.microsoft.com).
    let mut wrong1 = firewall("Misissued Relay A", 1.0, 2.0, 2048);
    wrong1.subject_style = SubjectStyle::WrongDomain("mail.google.com");
    wrong1.category = ProxyCategory::Unknown;
    v.push(wrong1);
    let mut wrong2 = firewall("Misissued Relay B", 1.0, 2.0, 2048);
    wrong2.subject_style = SubjectStyle::WrongDomain("urs.microsoft.com");
    wrong2.category = ProxyCategory::Unknown;
    v.push(wrong2);
    // 59 remaining subject tweaks (110 total − 51 mismatches).
    let mut tweaked = firewall("Annotating Middlebox", 59.0, 130.0, 2048);
    tweaked.subject_style = SubjectStyle::Tweaked;
    tweaked.category = ProxyCategory::Organization;
    v.push(tweaked);

    v
}

/// Sum of study-1 weights (≈ the 11,764 proxied connections of Table 3).
pub fn total_w1(specs: &[ProductSpec]) -> f64 {
    specs.iter().map(|s| s.w1).sum()
}

/// Sum of study-2 weights (≈ the 50,761 proxied connections of Table 7).
pub fn total_w2(specs: &[ProductSpec]) -> f64 {
    specs.iter().map(|s| s.w2).sum()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn catalog_totals_near_paper() {
        let specs = catalog();
        let w1 = total_w1(&specs);
        let w2 = total_w2(&specs);
        assert!(
            (10_500.0..13_000.0).contains(&w1),
            "study-1 weight {w1} should approximate 11,764"
        );
        assert!(
            (46_000.0..56_000.0).contains(&w2),
            "study-2 weight {w2} should approximate 50,761"
        );
    }

    #[test]
    fn category_shares_match_table5() {
        // Study 1, Table 5: Business/Personal Firewall 68.86%, Malware
        // 8.65%, Unknown 7.14%, Organization 12.66%.
        let specs = catalog();
        let total = total_w1(&specs);
        let share = |cat: ProxyCategory| -> f64 {
            specs.iter().filter(|s| s.category == cat).map(|s| s.w1).sum::<f64>() / total
        };
        let fw = share(ProxyCategory::BusinessPersonalFirewall);
        assert!((0.60..0.76).contains(&fw), "firewall share {fw}");
        let mw = share(ProxyCategory::Malware);
        assert!((0.06..0.11).contains(&mw), "malware share {mw}");
        let unk = share(ProxyCategory::Unknown);
        assert!((0.05..0.10).contains(&unk), "unknown share {unk}");
        let orgs = share(ProxyCategory::Organization);
        assert!((0.09..0.16).contains(&orgs), "organization share {orgs}");
        assert_eq!(share(ProxyCategory::Telecom), 0.0, "no telecom in study 1");
    }

    #[test]
    fn category_shares_match_table6() {
        // Study 2, Table 6: Unknown grows to 10.75%, Malware shrinks to
        // 5.06%, Telecom appears (0.88%).
        let specs = catalog();
        let total = total_w2(&specs);
        let share = |cat: ProxyCategory| -> f64 {
            specs.iter().filter(|s| s.category == cat).map(|s| s.w2).sum::<f64>() / total
        };
        let unk = share(ProxyCategory::Unknown);
        assert!((0.08..0.14).contains(&unk), "unknown share {unk}");
        let mw = share(ProxyCategory::Malware);
        assert!((0.035..0.075).contains(&mw), "malware share {mw}");
        let tel = share(ProxyCategory::Telecom);
        assert!((0.005..0.013).contains(&tel), "telecom share {tel}");
    }

    #[test]
    fn bitdefender_is_top_product() {
        let specs = catalog();
        let top = specs.iter().max_by(|a, b| a.w1.partial_cmp(&b.w1).unwrap()).unwrap();
        assert_eq!(top.display_name(), "Bitdefender");
        assert_eq!(top.upstream_policy, UpstreamPolicy::BlockInvalid);
    }

    #[test]
    fn kurupira_masks_forged_certs() {
        let specs = catalog();
        let kurupira = specs.iter().find(|s| s.display_name() == "Kurupira.NET").unwrap();
        assert_eq!(kurupira.upstream_policy, UpstreamPolicy::MaskInvalid);
    }

    #[test]
    fn iopfail_negligence_cluster() {
        let specs = catalog();
        let iop = specs.iter().find(|s| s.issuer_cn == Some("IopFailZeroAccessCreate")).unwrap();
        assert_eq!(iop.key_bits, 512);
        assert_eq!(iop.sig_alg, SignatureAlgorithm::Md5WithRsa);
        assert!(iop.shared_leaf_key);
        assert!(iop.issuer_org.is_none());
        assert_eq!(iop.w1, 21.0);
    }

    #[test]
    fn digicert_forgery_present() {
        let specs = catalog();
        let dc = specs.iter().find(|s| s.issuer_org == Some("DigiCert Inc")).unwrap();
        assert!(dc.copy_issuer);
        assert_eq!(dc.category, ProxyCategory::CertificateAuthority);
        assert_eq!(dc.w1, 49.0);
    }

    #[test]
    fn study2_only_malware_absent_in_study1() {
        let specs = catalog();
        for name in [
            "Objectify Media Inc",
            "Superfish, Inc.",
            "WiredTools LTD",
            "Internet Widgits Pty Ltd",
            "ImpressX OU",
        ] {
            let p = specs
                .iter()
                .find(|s| s.issuer_org == Some(name))
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(p.w1, 0.0, "{name} must not appear in study 1");
            assert!(p.w2 > 0.0);
            assert_eq!(p.category, ProxyCategory::Malware);
        }
    }

    #[test]
    fn key_downgrade_mass_matches() {
        // ~50.59% of study-1 substitutes had 1024-bit keys.
        let specs = catalog();
        let total = total_w1(&specs);
        let downgraded: f64 = specs.iter().filter(|s| s.key_bits == 1024).map(|s| s.w1).sum();
        let frac = downgraded / total;
        assert!((0.45..0.56).contains(&frac), "1024-bit fraction {frac}");
        // 512-bit mass = 21 (IopFail) in study 1.
        let tiny: f64 = specs.iter().filter(|s| s.key_bits == 512).map(|s| s.w1).sum();
        assert_eq!(tiny, 21.0);
    }

    #[test]
    fn md5_mass_is_23() {
        let specs = catalog();
        let md5: f64 = specs
            .iter()
            .filter(|s| s.sig_alg == SignatureAlgorithm::Md5WithRsa)
            .map(|s| s.w1)
            .sum();
        assert_eq!(md5, 23.0);
    }

    #[test]
    fn subject_mutation_masses() {
        let specs = catalog();
        let wildcard: f64 = specs
            .iter()
            .filter(|s| s.subject_style == SubjectStyle::WildcardIpSubnet)
            .map(|s| s.w1)
            .sum();
        let wrong: f64 = specs
            .iter()
            .filter(|s| matches!(s.subject_style, SubjectStyle::WrongDomain(_)))
            .map(|s| s.w1)
            .sum();
        let tweaked: f64 =
            specs.iter().filter(|s| s.subject_style == SubjectStyle::Tweaked).map(|s| s.w1).sum();
        assert_eq!(wildcard, 49.0);
        assert_eq!(wrong, 2.0);
        assert_eq!(tweaked, 59.0);
        // 49 + 2 = 51 mismatching subjects; + 59 = 110 modified (§5.2).
        assert_eq!(wildcard + wrong + tweaked, 110.0);
    }

    #[test]
    fn some_products_whitelist_popular_sites() {
        let specs = catalog();
        let total = total_w1(&specs);
        let whitelisting: f64 = specs.iter().filter(|s| s.whitelists_popular).map(|s| s.w1).sum();
        let frac = whitelisting / total;
        // Huang's Facebook-only study saw 0.20% vs our 0.41% ⇒ roughly
        // half the proxy mass must skip mega-popular sites.
        assert!((0.40..0.62).contains(&frac), "whitelisting fraction {frac}");
    }
}
