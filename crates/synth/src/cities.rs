//! The urban-area catalogue: real anchor cities plus procedural towns.
//!
//! iGDB standardizes every node location against the 7,342 populated
//! places of the Natural Earth shapefile (paper §3.1). That shapefile is
//! not redistributable here, so we embed ~250 real major cities (with
//! approximate coordinates written from general knowledge — adequate for a
//! synthetic world) and generate deterministic procedural towns around them
//! until the configured urban-area count is reached. Real cities anchor the
//! experiments that name places (Kansas City→Atlanta in Figure 7,
//! Madrid→Berlin in Figures 1/9, the InterTubes corridors of Figure 4).

use igdb_geo::GeoPoint;
use rand::rngs::StdRng;
use rand::Rng;

/// One urban area.
#[derive(Clone, Debug)]
pub struct City {
    /// Stable index in the catalogue (iGDB's standard-metro id).
    pub id: usize,
    pub name: String,
    /// State/province code, empty when not applicable.
    pub state: String,
    /// ISO-3166 alpha-2 country code.
    pub country: String,
    pub loc: GeoPoint,
    /// Population in thousands (drives PoP placement probability).
    pub population: u32,
    /// Whether submarine cables can land here.
    pub coastal: bool,
    /// True for procedurally generated towns.
    pub synthetic: bool,
}

impl City {
    /// The `City-ST-CC` standard label iGDB uses after standardization.
    pub fn standard_label(&self) -> String {
        if self.state.is_empty() {
            format!("{}-{}", self.name, self.country)
        } else {
            format!("{}-{}-{}", self.name, self.state, self.country)
        }
    }
}

/// Continent grouping used for right-of-way connectivity and AS regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    NorthAmerica,
    SouthAmerica,
    Europe,
    Africa,
    Asia,
    Oceania,
}

/// Continent of a country code (countries in the embedded catalogue only).
pub fn continent_of(country: &str) -> Continent {
    use Continent::*;
    match country {
        "US" | "CA" | "MX" | "GT" | "SV" | "HN" | "NI" | "CR" | "PA" | "CU" | "JM" | "DO"
        | "PR" | "BZ" | "BS" | "HT" | "BB" | "TT" => NorthAmerica,
        "CO" | "VE" | "EC" | "PE" | "BO" | "CL" | "AR" | "UY" | "PY" | "BR" | "GY" | "SR" => {
            SouthAmerica
        }
        "ES" | "PT" | "FR" | "DE" | "NL" | "BE" | "GB" | "IE" | "IT" | "CH" | "AT" | "CZ"
        | "PL" | "HU" | "RO" | "BG" | "GR" | "SE" | "NO" | "DK" | "FI" | "EE" | "LV" | "LT"
        | "UA" | "RU" | "TR" | "HR" | "RS" | "SK" | "SI" | "LU" | "IS" | "MT" | "CY" | "AL"
        | "MK" | "BA" | "MD" | "BY" | "ME" => Europe,
        "EG" | "NG" | "GH" | "CI" | "SN" | "MA" | "DZ" | "TN" | "LY" | "KE" | "ET" | "TZ"
        | "UG" | "RW" | "ZA" | "AO" | "CD" | "ZW" | "ZM" | "MZ" | "MG" | "SD" | "ML" | "BF"
        | "NE" | "TD" | "GN" | "SL" | "LR" | "TG" | "BJ" | "CF" | "GA" | "CG" | "CM" | "GQ"
        | "NA" | "BW" | "LS" | "MW" | "BI" | "DJ" | "ER" | "SO" | "MR" | "GM" | "GW" | "KM"
        | "SC" | "MU" | "CV" | "ST" => Africa,
        "JP" | "KR" | "CN" | "HK" | "TW" | "PH" | "TH" | "SG" | "MY" | "ID" | "VN" | "IN"
        | "PK" | "BD" | "LK" | "NP" | "AE" | "QA" | "SA" | "KW" | "IL" | "JO" | "LB" | "IQ"
        | "IR" | "UZ" | "KZ" | "MN" | "MM" | "KH" | "AM" | "GE" | "AZ" | "OM" | "BH" | "YE"
        | "AF" | "TM" | "KG" | "TJ" | "MV" | "BT" | "LA" | "BN" | "TL" => Asia,
        "AU" | "NZ" | "FJ" | "PG" | "SB" | "WS" | "VU" => Oceania,
        other => panic!("unknown country code '{other}' in city catalogue"),
    }
}

/// Row format: (name, state, country, lon, lat, pop_thousands, coastal).
type Row = (
    &'static str,
    &'static str,
    &'static str,
    f64,
    f64,
    u32,
    bool,
);

/// The embedded real-city catalogue. Coordinates are approximate city
/// centres; population figures are metro-scale and rounded.
#[rustfmt::skip]
pub const REAL_CITIES: &[Row] = &[
    // --- United States ---
    ("New York", "NY", "US", -74.006, 40.713, 19000, true),
    ("Los Angeles", "CA", "US", -118.244, 34.052, 13000, true),
    ("Chicago", "IL", "US", -87.630, 41.878, 9500, false),
    ("Houston", "TX", "US", -95.369, 29.760, 7000, true),
    ("Phoenix", "AZ", "US", -112.074, 33.448, 4900, false),
    ("Philadelphia", "PA", "US", -75.165, 39.953, 6100, false),
    ("San Antonio", "TX", "US", -98.494, 29.424, 2500, false),
    ("San Diego", "CA", "US", -117.161, 32.716, 3300, true),
    ("Dallas", "TX", "US", -96.797, 32.777, 7600, false),
    ("San Jose", "CA", "US", -121.889, 37.338, 2000, false),
    ("Austin", "TX", "US", -97.743, 30.267, 2300, false),
    ("Jacksonville", "FL", "US", -81.656, 30.332, 1600, true),
    ("Columbus", "OH", "US", -82.999, 39.961, 2100, false),
    ("Indianapolis", "IN", "US", -86.158, 39.768, 2100, false),
    ("Charlotte", "NC", "US", -80.843, 35.227, 2700, false),
    ("San Francisco", "CA", "US", -122.419, 37.775, 4700, true),
    ("Seattle", "WA", "US", -122.332, 47.606, 4000, true),
    ("Denver", "CO", "US", -104.990, 39.739, 3000, false),
    ("Washington", "DC", "US", -77.037, 38.907, 6300, false),
    ("Boston", "MA", "US", -71.059, 42.360, 4900, true),
    ("Nashville", "TN", "US", -86.781, 36.163, 2000, false),
    ("Detroit", "MI", "US", -83.046, 42.331, 4300, false),
    ("Portland", "OR", "US", -122.676, 45.523, 2500, false),
    ("Las Vegas", "NV", "US", -115.139, 36.172, 2300, false),
    ("Memphis", "TN", "US", -90.049, 35.150, 1300, false),
    ("Louisville", "KY", "US", -85.758, 38.253, 1300, false),
    ("Baltimore", "MD", "US", -76.612, 39.290, 2800, true),
    ("Milwaukee", "WI", "US", -87.907, 43.039, 1600, false),
    ("Albuquerque", "NM", "US", -106.651, 35.084, 900, false),
    ("Tucson", "AZ", "US", -110.975, 32.222, 1000, false),
    ("Sacramento", "CA", "US", -121.494, 38.582, 2400, false),
    ("Kansas City", "MO", "US", -94.579, 39.100, 2200, false),
    ("Atlanta", "GA", "US", -84.388, 33.749, 6100, false),
    ("Miami", "FL", "US", -80.192, 25.762, 6200, true),
    ("Tulsa", "OK", "US", -95.993, 36.154, 1000, false),
    ("Oklahoma City", "OK", "US", -97.517, 35.468, 1400, false),
    ("St Louis", "MO", "US", -90.199, 38.627, 2800, false),
    ("New Orleans", "LA", "US", -90.072, 29.951, 1300, true),
    ("Minneapolis", "MN", "US", -93.265, 44.978, 3700, false),
    ("Cleveland", "OH", "US", -81.694, 41.499, 2100, false),
    ("Pittsburgh", "PA", "US", -79.996, 40.441, 2300, false),
    ("Salt Lake City", "UT", "US", -111.891, 40.761, 1300, false),
    ("Orlando", "FL", "US", -81.379, 28.538, 2700, false),
    ("Tampa", "FL", "US", -82.457, 27.951, 3200, true),
    ("Cincinnati", "OH", "US", -84.512, 39.103, 2300, false),
    ("Raleigh", "NC", "US", -78.638, 35.779, 1400, false),
    ("Buffalo", "NY", "US", -78.878, 42.886, 1200, false),
    ("Richmond", "VA", "US", -77.436, 37.541, 1300, false),
    ("Birmingham", "AL", "US", -86.802, 33.521, 1100, false),
    ("Syracuse", "NY", "US", -76.148, 43.048, 660, false),
    ("El Paso", "TX", "US", -106.485, 31.759, 870, false),
    ("Omaha", "NE", "US", -95.935, 41.257, 970, false),
    ("Boise", "ID", "US", -116.202, 43.615, 760, false),
    ("Billings", "MT", "US", -108.501, 45.783, 180, false),
    ("Spokane", "WA", "US", -117.426, 47.659, 590, false),
    ("San Bernardino", "CA", "US", -117.290, 34.108, 2200, false),
    ("Irvine", "CA", "US", -117.826, 33.684, 310, false),
    ("Alexandria", "VA", "US", -77.047, 38.805, 160, false),
    ("Fresno", "CA", "US", -119.787, 36.737, 1000, false),
    ("Honolulu", "HI", "US", -157.858, 21.307, 1000, true),
    ("Anchorage", "AK", "US", -149.900, 61.218, 290, true),
    // --- Canada ---
    ("Toronto", "ON", "CA", -79.383, 43.653, 6200, false),
    ("Montreal", "QC", "CA", -73.568, 45.501, 4300, false),
    ("Vancouver", "BC", "CA", -123.121, 49.283, 2600, true),
    ("Calgary", "AB", "CA", -114.071, 51.045, 1500, false),
    ("Edmonton", "AB", "CA", -113.494, 53.546, 1400, false),
    ("Ottawa", "ON", "CA", -75.697, 45.421, 1400, false),
    ("Winnipeg", "MB", "CA", -97.139, 49.895, 830, false),
    ("Quebec City", "QC", "CA", -71.208, 46.814, 800, false),
    ("Halifax", "NS", "CA", -63.573, 44.649, 440, true),
    // --- Mexico & Central America & Caribbean ---
    ("Mexico City", "", "MX", -99.133, 19.433, 21800, false),
    ("Guadalajara", "", "MX", -103.350, 20.667, 5300, false),
    ("Monterrey", "", "MX", -100.316, 25.686, 5300, false),
    ("Tijuana", "", "MX", -117.038, 32.515, 2200, true),
    ("Guatemala City", "", "GT", -90.515, 14.634, 3000, false),
    ("San Salvador", "", "SV", -89.218, 13.699, 1100, false),
    ("Tegucigalpa", "", "HN", -87.192, 14.072, 1200, false),
    ("Managua", "", "NI", -86.251, 12.137, 1100, false),
    ("San Jose CR", "", "CR", -84.091, 9.928, 1400, false),
    ("Panama City", "", "PA", -79.520, 8.983, 1900, true),
    ("Havana", "", "CU", -82.366, 23.113, 2100, true),
    ("Kingston", "", "JM", -76.793, 17.971, 1200, true),
    ("Santo Domingo", "", "DO", -69.929, 18.486, 3300, true),
    ("San Juan", "", "PR", -66.106, 18.466, 2400, true),
    // --- South America ---
    ("Bogota", "", "CO", -74.072, 4.711, 10700, false),
    ("Medellin", "", "CO", -75.564, 6.244, 4000, false),
    ("Cali", "", "CO", -76.532, 3.452, 2800, false),
    ("Caracas", "", "VE", -66.904, 10.481, 2900, true),
    ("Quito", "", "EC", -78.468, -0.180, 2000, false),
    ("Guayaquil", "", "EC", -79.922, -2.170, 3000, true),
    ("Lima", "", "PE", -77.043, -12.046, 10700, true),
    ("La Paz", "", "BO", -68.134, -16.490, 1900, false),
    ("Santa Cruz", "", "BO", -63.181, -17.784, 1800, false),
    ("Santiago", "", "CL", -70.669, -33.449, 6800, false),
    ("Valparaiso", "", "CL", -71.628, -33.047, 1000, true),
    ("Buenos Aires", "", "AR", -58.382, -34.603, 15200, true),
    ("Cordoba", "", "AR", -64.188, -31.420, 1600, false),
    ("Rosario", "", "AR", -60.640, -32.947, 1300, false),
    ("Montevideo", "", "UY", -56.165, -34.902, 1800, true),
    ("Asuncion", "", "PY", -57.576, -25.264, 2300, false),
    ("Sao Paulo", "", "BR", -46.633, -23.551, 22400, false),
    ("Rio de Janeiro", "", "BR", -43.173, -22.907, 13500, true),
    ("Brasilia", "", "BR", -47.883, -15.794, 3100, false),
    ("Salvador", "", "BR", -38.502, -12.973, 2900, true),
    ("Fortaleza", "", "BR", -38.527, -3.732, 4100, true),
    ("Recife", "", "BR", -34.877, -8.054, 4100, true),
    ("Belo Horizonte", "", "BR", -43.938, -19.920, 6000, false),
    ("Porto Alegre", "", "BR", -51.230, -30.033, 4300, false),
    ("Curitiba", "", "BR", -49.273, -25.429, 3700, false),
    ("Manaus", "", "BR", -60.025, -3.119, 2200, false),
    // --- Europe ---
    ("Madrid", "", "ES", -3.704, 40.417, 6700, false),
    ("Barcelona", "", "ES", 2.173, 41.385, 5600, true),
    ("Valencia", "", "ES", -0.376, 39.470, 1600, true),
    ("Bilbao", "", "ES", -2.935, 43.263, 1000, true),
    ("Lisbon", "", "PT", -9.139, 38.722, 2900, true),
    ("Porto", "", "PT", -8.611, 41.150, 1700, true),
    ("Paris", "", "FR", 2.352, 48.857, 11000, false),
    ("Lyon", "", "FR", 4.835, 45.764, 2300, false),
    ("Marseille", "", "FR", 5.370, 43.296, 1900, true),
    ("Bordeaux", "", "FR", -0.579, 44.838, 1000, true),
    ("Toulouse", "", "FR", 1.444, 43.605, 1100, false),
    ("Berlin", "", "DE", 13.405, 52.520, 3700, false),
    ("Hamburg", "", "DE", 9.994, 53.551, 1900, true),
    ("Munich", "", "DE", 11.582, 48.136, 1600, false),
    ("Frankfurt", "", "DE", 8.682, 50.111, 800, false),
    ("Cologne", "", "DE", 6.960, 50.938, 1100, false),
    ("Dusseldorf", "", "DE", 6.773, 51.228, 650, false),
    ("Stuttgart", "", "DE", 9.182, 48.776, 640, false),
    ("Dresden", "", "DE", 13.738, 51.051, 560, false),
    ("Leipzig", "", "DE", 12.375, 51.340, 600, false),
    ("Amsterdam", "", "NL", 4.895, 52.370, 2500, true),
    ("Rotterdam", "", "NL", 4.479, 51.924, 1000, true),
    ("Brussels", "", "BE", 4.352, 50.847, 2100, false),
    ("Antwerp", "", "BE", 4.402, 51.220, 530, true),
    ("London", "", "GB", -0.128, 51.507, 14300, false),
    ("Manchester", "", "GB", -2.244, 53.480, 2800, false),
    ("Birmingham UK", "", "GB", -1.890, 52.486, 2900, false),
    ("Edinburgh", "", "GB", -3.188, 55.953, 540, true),
    ("Glasgow", "", "GB", -4.252, 55.864, 1700, true),
    ("Dublin", "", "IE", -6.260, 53.350, 1400, true),
    ("Rome", "", "IT", 12.496, 41.903, 4300, false),
    ("Milan", "", "IT", 9.190, 45.464, 3100, false),
    ("Turin", "", "IT", 7.686, 45.070, 1700, false),
    ("Naples", "", "IT", 14.268, 40.852, 3100, true),
    ("Zurich", "", "CH", 8.541, 47.376, 1400, false),
    ("Geneva", "", "CH", 6.143, 46.204, 600, false),
    ("Bern", "", "CH", 7.447, 46.948, 420, false),
    ("Vienna", "", "AT", 16.373, 48.208, 1900, false),
    ("Prague", "", "CZ", 14.438, 50.076, 1300, false),
    ("Warsaw", "", "PL", 21.012, 52.230, 1800, false),
    ("Katowice", "", "PL", 19.025, 50.264, 2000, false),
    ("Krakow", "", "PL", 19.945, 50.065, 770, false),
    ("Budapest", "", "HU", 19.040, 47.498, 1800, false),
    ("Bucharest", "", "RO", 26.104, 44.427, 1800, false),
    ("Sofia", "", "BG", 23.322, 42.698, 1300, false),
    ("Athens", "", "GR", 23.728, 37.984, 3200, true),
    ("Thessaloniki", "", "GR", 22.944, 40.640, 1000, true),
    ("Stockholm", "", "SE", 18.069, 59.329, 1600, true),
    ("Gothenburg", "", "SE", 11.975, 57.709, 600, true),
    ("Oslo", "", "NO", 10.752, 59.914, 1000, true),
    ("Copenhagen", "", "DK", 12.568, 55.676, 1300, true),
    ("Helsinki", "", "FI", 24.938, 60.170, 1300, true),
    ("Tallinn", "", "EE", 24.754, 59.437, 450, true),
    ("Riga", "", "LV", 24.105, 56.950, 630, true),
    ("Vilnius", "", "LT", 25.280, 54.687, 540, false),
    ("Kyiv", "", "UA", 30.523, 50.450, 3000, false),
    ("Moscow", "", "RU", 37.618, 55.756, 12600, false),
    ("St Petersburg", "", "RU", 30.336, 59.931, 5400, true),
    ("Istanbul", "", "TR", 28.979, 41.008, 15500, true),
    ("Ankara", "", "TR", 32.854, 39.920, 5700, false),
    ("Zagreb", "", "HR", 15.982, 45.815, 800, false),
    ("Belgrade", "", "RS", 20.448, 44.787, 1400, false),
    ("Bratislava", "", "SK", 17.107, 48.149, 430, false),
    ("Ljubljana", "", "SI", 14.506, 46.057, 290, false),
    ("Luxembourg", "", "LU", 6.130, 49.611, 130, false),
    // --- Africa ---
    ("Cairo", "", "EG", 31.236, 30.044, 21300, false),
    ("Alexandria EG", "", "EG", 29.919, 31.200, 5400, true),
    ("Lagos", "", "NG", 3.379, 6.524, 15400, true),
    ("Abuja", "", "NG", 7.399, 9.077, 3600, false),
    ("Accra", "", "GH", -0.187, 5.604, 2600, true),
    ("Abidjan", "", "CI", -4.008, 5.360, 5300, true),
    ("Dakar", "", "SN", -17.444, 14.693, 3100, true),
    ("Casablanca", "", "MA", -7.590, 33.573, 3800, true),
    ("Algiers", "", "DZ", 3.059, 36.754, 2800, true),
    ("Tunis", "", "TN", 10.165, 36.819, 2400, true),
    ("Tripoli", "", "LY", 13.191, 32.887, 1200, true),
    ("Nairobi", "", "KE", 36.817, -1.286, 5100, false),
    ("Mombasa", "", "KE", 39.668, -4.043, 1300, true),
    ("Addis Ababa", "", "ET", 38.747, 9.030, 5200, false),
    ("Dar es Salaam", "", "TZ", 39.284, -6.792, 7000, true),
    ("Kampala", "", "UG", 32.582, 0.347, 3700, false),
    ("Kigali", "", "RW", 30.059, -1.944, 1200, false),
    ("Johannesburg", "", "ZA", 28.047, -26.204, 6100, false),
    ("Cape Town", "", "ZA", 18.424, -33.925, 4800, true),
    ("Durban", "", "ZA", 31.022, -29.858, 3200, true),
    ("Luanda", "", "AO", 13.235, -8.838, 8900, true),
    ("Kinshasa", "", "CD", 15.267, -4.441, 16000, false),
    ("Harare", "", "ZW", 31.053, -17.830, 2100, false),
    ("Lusaka", "", "ZM", 28.283, -15.417, 3000, false),
    ("Maputo", "", "MZ", 32.589, -25.966, 1800, true),
    ("Antananarivo", "", "MG", 47.524, -18.880, 3600, false),
    ("Khartoum", "", "SD", 32.533, 15.500, 6300, false),
    // --- Asia & Middle East ---
    ("Tokyo", "", "JP", 139.692, 35.690, 37300, true),
    ("Osaka", "", "JP", 135.502, 34.694, 19100, true),
    ("Nagoya", "", "JP", 136.907, 35.181, 9500, true),
    ("Seoul", "", "KR", 126.978, 37.567, 25500, false),
    ("Busan", "", "KR", 129.075, 35.180, 3400, true),
    ("Beijing", "", "CN", 116.407, 39.904, 21500, false),
    ("Shanghai", "", "CN", 121.474, 31.230, 28500, true),
    ("Guangzhou", "", "CN", 113.264, 23.129, 18700, false),
    ("Shenzhen", "", "CN", 114.058, 22.543, 17500, true),
    ("Chengdu", "", "CN", 104.066, 30.573, 16300, false),
    ("Hong Kong", "", "HK", 114.169, 22.319, 7500, true),
    ("Taipei", "", "TW", 121.565, 25.033, 7000, true),
    ("Manila", "", "PH", 120.984, 14.599, 14200, true),
    ("Bangkok", "", "TH", 100.502, 13.756, 10700, true),
    ("Singapore", "", "SG", 103.820, 1.352, 5900, true),
    ("Kuala Lumpur", "", "MY", 101.687, 3.139, 8200, false),
    ("Jakarta", "", "ID", 106.845, -6.208, 10600, true),
    ("Hanoi", "", "VN", 105.834, 21.028, 8100, false),
    ("Ho Chi Minh City", "", "VN", 106.630, 10.823, 9300, true),
    ("Mumbai", "", "IN", 72.878, 19.076, 20700, true),
    ("Delhi", "", "IN", 77.209, 28.614, 31200, false),
    ("Bangalore", "", "IN", 77.595, 12.972, 12800, false),
    ("Chennai", "", "IN", 80.271, 13.083, 11200, true),
    ("Kolkata", "", "IN", 88.364, 22.573, 14900, true),
    ("Hyderabad", "", "IN", 78.487, 17.385, 10300, false),
    ("Karachi", "", "PK", 67.010, 24.861, 16500, true),
    ("Lahore", "", "PK", 74.329, 31.520, 13100, false),
    ("Dhaka", "", "BD", 90.412, 23.810, 22500, false),
    ("Colombo", "", "LK", 79.861, 6.927, 2500, true),
    ("Kathmandu", "", "NP", 85.324, 27.717, 1500, false),
    ("Dubai", "", "AE", 55.271, 25.205, 3500, true),
    ("Abu Dhabi", "", "AE", 54.367, 24.454, 1500, true),
    ("Doha", "", "QA", 51.531, 25.286, 2400, true),
    ("Riyadh", "", "SA", 46.675, 24.713, 7700, false),
    ("Jeddah", "", "SA", 39.173, 21.543, 4800, true),
    ("Kuwait City", "", "KW", 47.978, 29.376, 3100, true),
    ("Tel Aviv", "", "IL", 34.781, 32.085, 4400, true),
    ("Amman", "", "JO", 35.924, 31.955, 2200, false),
    ("Beirut", "", "LB", 35.501, 33.894, 2400, true),
    ("Baghdad", "", "IQ", 44.361, 33.315, 7500, false),
    ("Tehran", "", "IR", 51.389, 35.689, 9400, false),
    ("Tashkent", "", "UZ", 69.240, 41.300, 2600, false),
    ("Almaty", "", "KZ", 76.890, 43.238, 2100, false),
    ("Ulaanbaatar", "", "MN", 106.918, 47.919, 1600, false),
    ("Yangon", "", "MM", 96.156, 16.841, 5400, true),
    ("Phnom Penh", "", "KH", 104.892, 11.545, 2300, false),
    // --- Oceania ---
    ("Sydney", "", "AU", 151.209, -33.868, 5400, true),
    ("Melbourne", "", "AU", 144.963, -37.814, 5200, true),
    ("Brisbane", "", "AU", 153.026, -27.470, 2600, true),
    ("Perth", "", "AU", 115.861, -31.950, 2100, true),
    ("Adelaide", "", "AU", 138.601, -34.929, 1400, true),
    ("Canberra", "", "AU", 149.128, -35.282, 460, false),
    ("Auckland", "", "NZ", 174.764, -36.848, 1700, true),
    ("Wellington", "", "NZ", 174.777, -41.289, 420, true),
    ("Christchurch", "", "NZ", 172.636, -43.532, 400, true),
    ("Suva", "", "FJ", 178.442, -18.141, 190, true),
    // --- Additional capitals (coverage of smaller countries) ---
    ("Reykjavik", "", "IS", -21.895, 64.147, 230, true),
    ("Valletta", "", "MT", 14.514, 35.899, 400, true),
    ("Nicosia", "", "CY", 33.382, 35.185, 330, false),
    ("Tirana", "", "AL", 19.819, 41.328, 900, false),
    ("Skopje", "", "MK", 21.432, 41.998, 600, false),
    ("Sarajevo", "", "BA", 18.413, 43.856, 550, false),
    ("Chisinau", "", "MD", 28.864, 47.011, 700, false),
    ("Minsk", "", "BY", 27.567, 53.904, 2000, false),
    ("Podgorica", "", "ME", 19.263, 42.441, 190, false),
    ("Yerevan", "", "AM", 44.509, 40.177, 1100, false),
    ("Tbilisi", "", "GE", 44.793, 41.715, 1200, false),
    ("Baku", "", "AZ", 49.867, 40.409, 2300, true),
    ("Muscat", "", "OM", 58.406, 23.588, 1600, true),
    ("Manama", "", "BH", 50.586, 26.228, 700, true),
    ("Sanaa", "", "YE", 44.207, 15.369, 3000, false),
    ("Kabul", "", "AF", 69.178, 34.528, 4600, false),
    ("Ashgabat", "", "TM", 58.383, 37.950, 1000, false),
    ("Bishkek", "", "KG", 74.570, 42.875, 1100, false),
    ("Dushanbe", "", "TJ", 68.780, 38.560, 900, false),
    ("Male", "", "MV", 73.509, 4.175, 250, true),
    ("Thimphu", "", "BT", 89.636, 27.472, 110, false),
    ("Vientiane", "", "LA", 102.633, 17.975, 950, false),
    ("Bandar Seri Begawan", "", "BN", 114.940, 4.903, 240, true),
    ("Dili", "", "TL", 125.567, -8.556, 280, true),
    ("Port Moresby", "", "PG", 147.180, -9.443, 400, true),
    ("Honiara", "", "SB", 159.956, -9.446, 90, true),
    ("Apia", "", "WS", -171.766, -13.833, 40, true),
    ("Port Vila", "", "VU", 168.321, -17.734, 50, true),
    ("Bamako", "", "ML", -8.003, 12.639, 2800, false),
    ("Ouagadougou", "", "BF", -1.520, 12.371, 3000, false),
    ("Niamey", "", "NE", 2.113, 13.512, 1400, false),
    ("NDjamena", "", "TD", 15.044, 12.135, 1600, false),
    ("Conakry", "", "GN", -13.578, 9.641, 2000, true),
    ("Freetown", "", "SL", -13.234, 8.484, 1200, true),
    ("Monrovia", "", "LR", -10.801, 6.301, 1500, true),
    ("Lome", "", "TG", 1.222, 6.137, 1900, true),
    ("Cotonou", "", "BJ", 2.433, 6.366, 2400, true),
    ("Bangui", "", "CF", 18.555, 4.394, 900, false),
    ("Libreville", "", "GA", 9.454, 0.390, 850, true),
    ("Brazzaville", "", "CG", 15.266, -4.263, 2600, false),
    ("Yaounde", "", "CM", 11.518, 3.848, 4100, false),
    ("Malabo", "", "GQ", 8.780, 3.752, 300, true),
    ("Windhoek", "", "NA", 17.084, -22.560, 450, false),
    ("Gaborone", "", "BW", 25.908, -24.655, 270, false),
    ("Maseru", "", "LS", 27.480, -29.315, 330, false),
    ("Lilongwe", "", "MW", 33.787, -13.963, 1100, false),
    ("Bujumbura", "", "BI", 29.360, -3.382, 1100, false),
    ("Djibouti City", "", "DJ", 43.145, 11.572, 600, true),
    ("Asmara", "", "ER", 38.932, 15.322, 900, false),
    ("Mogadishu", "", "SO", 45.318, 2.047, 2600, true),
    ("Nouakchott", "", "MR", -15.978, 18.079, 1300, true),
    ("Banjul", "", "GM", -16.578, 13.454, 450, true),
    ("Bissau", "", "GW", -15.598, 11.861, 500, true),
    ("Moroni", "", "KM", 43.256, -11.699, 110, true),
    ("Victoria SC", "", "SC", 55.451, -4.620, 30, true),
    ("Port Louis", "", "MU", 57.504, -20.162, 150, true),
    ("Praia", "", "CV", -23.509, 14.933, 170, true),
    ("Sao Tome", "", "ST", 6.731, 0.336, 90, true),
    ("Belmopan", "", "BZ", -88.760, 17.251, 25, false),
    ("Nassau", "", "BS", -77.344, 25.047, 280, true),
    ("Port-au-Prince", "", "HT", -72.335, 18.547, 2900, true),
    ("Bridgetown", "", "BB", -59.616, 13.098, 110, true),
    ("Port of Spain", "", "TT", -61.517, 10.655, 550, true),
    ("Georgetown", "", "GY", -58.155, 6.801, 240, true),
    ("Paramaribo", "", "SR", -55.204, 5.852, 240, true),
    ("Ulan Ude", "", "RU", 107.584, 51.834, 440, false),
];

/// Builds the urban-area catalogue: all real cities first, then
/// deterministic procedural towns until `total` cities exist. Towns are
/// placed near a population-weighted real anchor city, inherit its country
/// and state, and are never coastal.
pub fn build_cities(total: usize, rng: &mut StdRng) -> Vec<City> {
    let mut cities: Vec<City> = REAL_CITIES
        .iter()
        .enumerate()
        .map(
            |(id, &(name, state, country, lon, lat, pop, coastal))| City {
                id,
                name: name.to_string(),
                state: state.to_string(),
                country: country.to_string(),
                loc: GeoPoint::new(lon, lat),
                population: pop,
                coastal,
                synthetic: false,
            },
        )
        .collect();
    // Population-weighted anchor choice without external weighted-index
    // machinery: cumulative sums.
    let cum: Vec<u64> = cities
        .iter()
        .scan(0u64, |acc, c| {
            *acc += c.population as u64;
            Some(*acc)
        })
        .collect();
    let total_pop = *cum.last().unwrap();
    let mut used_coords: std::collections::HashSet<(u64, u64)> = cities
        .iter()
        .map(|c| (c.loc.lon.to_bits(), c.loc.lat.to_bits()))
        .collect();
    let mut town_serial = 0usize;
    while cities.len() < total {
        let pick = rng.gen_range(0..total_pop);
        let anchor_idx = cum
            .partition_point(|&s| s <= pick)
            .min(REAL_CITIES.len() - 1);
        let anchor_loc = cities[anchor_idx].loc;
        let dlon = rng.gen_range(-2.5..2.5);
        let dlat = rng.gen_range(-2.0..2.0);
        let loc = GeoPoint::new(
            anchor_loc.lon + dlon,
            (anchor_loc.lat + dlat).clamp(-85.0, 85.0),
        );
        if !used_coords.insert((loc.lon.to_bits(), loc.lat.to_bits())) {
            continue;
        }
        town_serial += 1;
        let id = cities.len();
        let (country, state) = (
            cities[anchor_idx].country.clone(),
            cities[anchor_idx].state.clone(),
        );
        cities.push(City {
            id,
            name: format!("{} Town {}", cities[anchor_idx].name, town_serial),
            state,
            country,
            loc,
            population: rng.gen_range(5..400),
            coastal: false,
            synthetic: true,
        });
    }
    cities.truncate(total.max(REAL_CITIES.len()));
    cities
}

/// Derives a 3-letter lowercase "airport style" code from a city name, the
/// kind ISPs embed in router hostnames. Deterministic; collisions across
/// cities are resolved by the caller (see `naming::GeoCodebook`).
pub fn base_geocode(name: &str) -> String {
    let letters: Vec<char> = name
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_lowercase())
        .collect();
    match letters.len() {
        0 => "xxx".to_string(),
        1 => format!("{}xx", letters[0]),
        2 => format!("{}{}x", letters[0], letters[1]),
        _ => letters[..3].iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn catalogue_has_experiment_cities() {
        let names: std::collections::HashSet<&str> = REAL_CITIES.iter().map(|r| r.0).collect();
        // Figure 7 cities.
        for c in [
            "Kansas City",
            "Tulsa",
            "Oklahoma City",
            "Dallas",
            "Houston",
            "Atlanta",
            "St Louis",
            "Nashville",
        ] {
            assert!(names.contains(c), "missing {c}");
        }
        // Figure 1/9 cities.
        for c in ["Madrid", "Paris", "Frankfurt", "Dusseldorf", "Berlin"] {
            assert!(names.contains(c), "missing {c}");
        }
    }

    #[test]
    fn catalogue_coordinates_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, _, country, lon, lat, pop, _) in REAL_CITIES {
            assert!((-180.0..=180.0).contains(&lon), "{name}");
            assert!((-90.0..=90.0).contains(&lat), "{name}");
            assert!(pop > 0, "{name}");
            assert!(seen.insert(name), "duplicate city name {name}");
            continent_of(country); // panics on unknown country
        }
        assert!(
            REAL_CITIES.len() >= 230,
            "catalogue too small: {}",
            REAL_CITIES.len()
        );
    }

    #[test]
    fn build_cities_reaches_requested_total() {
        let mut rng = StdRng::seed_from_u64(7);
        let cities = build_cities(1000, &mut rng);
        assert_eq!(cities.len(), 1000);
        assert!(cities[..REAL_CITIES.len()].iter().all(|c| !c.synthetic));
        assert!(cities[REAL_CITIES.len()..].iter().all(|c| c.synthetic));
        // Ids are their indexes.
        for (i, c) in cities.iter().enumerate() {
            assert_eq!(c.id, i);
        }
    }

    #[test]
    fn build_cities_is_deterministic() {
        let a = build_cities(500, &mut StdRng::seed_from_u64(42));
        let b = build_cities(500, &mut StdRng::seed_from_u64(42));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.loc, y.loc);
        }
    }

    #[test]
    fn towns_inherit_country_of_anchor() {
        let mut rng = StdRng::seed_from_u64(9);
        let cities = build_cities(600, &mut rng);
        let countries: std::collections::HashSet<&str> = REAL_CITIES.iter().map(|r| r.2).collect();
        for t in cities.iter().filter(|c| c.synthetic) {
            assert!(countries.contains(t.country.as_str()));
            assert!(!t.coastal);
        }
    }

    #[test]
    fn standard_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let cities = build_cities(REAL_CITIES.len(), &mut rng);
        let kc = cities.iter().find(|c| c.name == "Kansas City").unwrap();
        assert_eq!(kc.standard_label(), "Kansas City-MO-US");
        let madrid = cities.iter().find(|c| c.name == "Madrid").unwrap();
        assert_eq!(madrid.standard_label(), "Madrid-ES");
    }

    #[test]
    fn geocodes_are_three_letters() {
        assert_eq!(base_geocode("Dresden"), "dre");
        assert_eq!(base_geocode("St Louis"), "stl");
        assert_eq!(base_geocode("A"), "axx");
        assert_eq!(base_geocode("42"), "xxx");
    }
}
